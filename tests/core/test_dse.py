"""DSE agent tests: depth-cut exploration and exchange pricing."""

import pytest

from repro.core.dp import ExecutorModel
from repro.core.dse import (
    DataSearchSpec,
    StagedExchangeSearch,
    candidate_cuts,
    exchange_costs,
    exchange_equiv_bytes,
    explore_data,
    explore_data_batch,
    explore_data_exchange,
)
from repro.dnn.layers import LAYER_CLASSES
from repro.dnn.models import build_model


def _executor(ident, rate_gf, comm_mb=1e9, fixed=0.0):
    rates = {cls: rate_gf * 1e9 for cls in LAYER_CLASSES}
    return ExecutorModel(ident=ident, rates=rates, comm_bytes_s=comm_mb * 1e6, fixed_s=fixed)


class TestCandidateCuts:
    def test_cuts_within_spatial_prefix(self, vgg19):
        segments = vgg19.segments()
        cuts = candidate_cuts(vgg19, segments, (0, len(segments) - 1), max_cuts=5)
        assert cuts
        for cut in cuts:
            assert segments[cut].spatial

    def test_thinning_respects_limit(self, resnet152):
        segments = resnet152.segments()
        cuts = candidate_cuts(resnet152, segments, (0, len(segments) - 1), max_cuts=8)
        assert len(cuts) <= 9  # limit + guaranteed last position

    def test_nonspatial_range_empty(self, tiny_cnn):
        segments = tiny_cnn.segments()
        last = len(segments) - 1
        assert candidate_cuts(tiny_cnn, segments, (last, last)) == []

    @pytest.mark.parametrize("max_cuts", [0, -2])
    def test_nonpositive_max_cuts_rejected(self, resnet152, max_cuts):
        """Every search over candidate cuts rejects the bound instead of
        dividing by zero (0) or sweeping every position uncapped (< 0)."""
        segments = resnet152.segments()
        seg_range = (0, len(segments) - 1)
        executors = [_executor("a", 20.0), _executor("b", 10.0)]
        exchange = dict(intra_latency_s=0.0002, intra_bw_bytes_s=5e9, max_cuts=max_cuts)
        searches = [
            lambda: candidate_cuts(resnet152, segments, seg_range, max_cuts=max_cuts),
            lambda: explore_data(resnet152, segments, seg_range, executors, max_cuts=max_cuts),
            lambda: explore_data_batch(
                [DataSearchSpec(resnet152, segments, seg_range, resnet152.segment_table(),
                                max_cuts=max_cuts)],
                executors,
            ),
            lambda: explore_data_exchange(resnet152, segments, seg_range, executors, **exchange),
            lambda: StagedExchangeSearch(
                resnet152, segments, seg_range[1], executors, **exchange
            ).decide(0),
        ]
        for search in searches:
            with pytest.raises(ValueError, match="max_cuts"):
                search()


class TestExploreData:
    def test_balanced_executors_split(self, vgg19):
        segments = vgg19.segments()
        executors = [_executor("a", 20.0), _executor("b", 20.0)]
        decision = explore_data(vgg19, segments, (0, len(segments) - 1), executors, min_sigma=2)
        assert decision is not None
        assert decision.sigma == 2
        shares = [share for _, share in decision.active]
        assert shares[0] == pytest.approx(0.5, abs=0.15)

    def test_expensive_remote_rejected(self, vgg19):
        segments = vgg19.segments()
        executors = [_executor("local", 20.0), _executor("remote", 20.0, comm_mb=0.001, fixed=5.0)]
        decision = explore_data(vgg19, segments, (0, len(segments) - 1), executors, min_sigma=2)
        assert decision is None  # min_sigma=2 unreachable sensibly

    def test_cut_avoids_full_depth(self, resnet152):
        """The chosen depth cut must leave a tail: tiling the 7x7 end of
        ResNet would mean full-halo recompute."""
        segments = resnet152.segments()
        executors = [_executor("a", 20.0), _executor("b", 20.0)]
        decision = explore_data(resnet152, segments, (0, len(segments) - 1), executors, min_sigma=2)
        assert decision is not None
        assert decision.tail_range is not None

    def test_predicted_positive(self, vgg19):
        segments = vgg19.segments()
        executors = [_executor("a", 20.0), _executor("b", 10.0)]
        decision = explore_data(vgg19, segments, (0, len(segments) - 1), executors, min_sigma=2)
        assert decision.predicted_s > 0


class TestExploreDataExchange:
    def test_exact_share_flops(self, efficientnet_b0):
        segments = efficientnet_b0.segments()
        executors = [_executor("a", 5.0), _executor("b", 5.0)]
        decision = explore_data_exchange(
            efficientnet_b0,
            segments,
            (0, len(segments) - 1),
            executors,
            intra_latency_s=0.0002,
            intra_bw_bytes_s=5e9,
        )
        assert decision is not None
        chunk_flops = sum(
            seg.flops for seg in segments[: decision.cut_segment + 1]
        )
        total_tiles = sum(sum(f.values()) for f in decision.per_tile_flops)
        # exact proportional shares: no halo inflation
        assert total_tiles <= chunk_flops
        assert total_tiles >= 0.95 * chunk_flops

    def test_exchange_bytes_positive(self, tiny_cnn):
        segments = tiny_cnn.segments()
        equiv = exchange_equiv_bytes(tiny_cnn, segments, (0, 1), 0.0002, 5e9)
        assert equiv > 0


class TestExchangeCosts:
    def test_per_tile_flops_proportional(self, vgg19):
        segments = vgg19.segments()
        cost = exchange_costs(vgg19, segments, (0, len(segments) - 1), [0.75, 0.25])
        big = sum(cost.per_tile_flops[0].values())
        small = sum(cost.per_tile_flops[1].values())
        assert big == pytest.approx(3 * small, rel=0.02)

    def test_boundary_totals(self, vgg19):
        segments = vgg19.segments()
        cost = exchange_costs(vgg19, segments, (0, len(segments) - 1), [0.5, 0.5])
        assert cost.exchange_bytes_per_boundary > 0
        assert cost.exchange_events_per_boundary > 0
        assert cost.total_exchange_bytes(2) == 2 * cost.exchange_bytes_per_boundary
        assert cost.total_exchange_bytes(1) == 0

    def test_pointwise_layers_free(self, tiny_cnn):
        segments = tiny_cnn.segments()
        cost = exchange_costs(tiny_cnn, segments, (0, len(segments) - 1), [0.5, 0.5])
        # only the k>1 layers (conv1, pool1, conv2, pool2) exchange
        assert cost.exchange_events_per_boundary == 4
