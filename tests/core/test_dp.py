"""DP search tests: correctness against brute force on small instances."""

import itertools

import pytest

from repro.core.dp import (
    ExecutorModel,
    data_shares_dp,
    data_shares_greedy,
    pipeline_cuts_dp,
    pipeline_cuts_dp_reference,
    pipeline_greedy,
    scale_flops,
    _coarsen,
)
from repro.dnn.layers import LAYER_CLASSES
from repro.dnn.models import build_model


def _executor(ident, rate_gf, comm_mb=10.0, fixed=0.0, dispatch=0.0):
    rates = {cls: rate_gf * 1e9 for cls in LAYER_CLASSES}
    return ExecutorModel(
        ident=ident, rates=rates, comm_bytes_s=comm_mb * 1e6, fixed_s=fixed, dispatch_s=dispatch
    )


class TestExecutorModel:
    def test_compute_seconds(self):
        ex = _executor("e", 10.0)
        assert ex.compute_seconds({"conv": 10**10}) == pytest.approx(1.0)

    def test_dispatch_added(self):
        ex = _executor("e", 10.0, dispatch=0.001)
        assert ex.compute_seconds({}, num_ops=10) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            _executor("e", 10.0, comm_mb=0)
        with pytest.raises(ValueError):
            _executor("e", -1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("comm_bytes_s", float("nan")),
            ("comm_bytes_s", -1.0),
            ("fixed_s", float("nan")),
            ("fixed_s", float("inf")),
            ("fixed_s", -0.1),
            ("dispatch_s", float("nan")),
            ("dispatch_s", float("inf")),
            ("dispatch_s", -0.1),
        ],
    )
    def test_rejects_non_finite_and_negative_costs(self, field, value):
        kwargs = {"comm_bytes_s": 1e6, "fixed_s": 0.0, "dispatch_s": 0.0, field: value}
        with pytest.raises(ValueError, match=field):
            ExecutorModel(ident="e", rates={"conv": 1e9}, **kwargs)

    @pytest.mark.parametrize("rate", [float("nan"), 0.0, -1.0])
    def test_rejects_bad_rates(self, rate):
        with pytest.raises(ValueError, match="rates"):
            ExecutorModel(ident="e", rates={"conv": 1e9, "fc": rate}, comm_bytes_s=1e6)

    def test_infinite_comm_rate_is_the_data_holder(self):
        holder = ExecutorModel(ident="e", rates={"conv": 1e9}, comm_bytes_s=float("inf"))
        assert holder.comm_seconds(10**9) == 0.0

    def test_scale_flops(self):
        assert scale_flops({"conv": 100, "pool": 0}, 0.5) == {"conv": 50}
        with pytest.raises(ValueError):
            scale_flops({"conv": 1}, -0.5)


class TestDataSharesDP:
    def test_single_executor_gets_everything(self):
        plan = data_shares_dp({"conv": 10**9}, 0, [_executor("only", 10.0)])
        assert plan.shares == (1.0,)
        assert plan.makespan_s == pytest.approx(0.1)

    def test_balanced_across_equal_executors(self):
        executors = [_executor("a", 10.0), _executor("b", 10.0)]
        plan = data_shares_dp({"conv": 10**9}, 0, executors, quanta=10)
        assert plan.shares == (0.5, 0.5)

    def test_proportional_to_rates(self):
        executors = [_executor("fast", 30.0), _executor("slow", 10.0)]
        plan = data_shares_dp({"conv": 10**9}, 0, executors, quanta=20)
        assert plan.shares[0] == pytest.approx(0.75, abs=0.051)

    def test_comm_cost_shrinks_remote_share(self):
        local = _executor("local", 10.0, comm_mb=1e6)
        remote = _executor("remote", 10.0, comm_mb=1.0)  # 1 MB/s
        plan = data_shares_dp({"conv": 10**9}, 10**7, [local, remote], quanta=20)
        assert plan.shares[0] > plan.shares[1]

    def test_fixed_cost_can_exclude_executor(self):
        local = _executor("local", 10.0)
        remote = _executor("remote", 10.0, fixed=10.0)
        plan = data_shares_dp({"conv": 10**9}, 0, [local, remote], quanta=10)
        assert plan.shares == (1.0, 0.0)

    def test_dispatch_discourages_thin_shares(self):
        local = _executor("local", 10.0)
        other = _executor("other", 0.5, dispatch=0.01)
        plan = data_shares_dp({"conv": 10**8}, 0, [local, other], quanta=20, num_ops=100)
        # joining costs 1s of dispatch for <=5% of 10ms of work: stay away
        assert plan.shares[1] == 0.0

    def test_matches_brute_force(self):
        executors = [_executor("a", 13.0, fixed=0.002), _executor("b", 7.0, fixed=0.005), _executor("c", 3.0)]
        flops = {"conv": 5 * 10**8}
        quanta = 10
        plan = data_shares_dp(flops, 0, executors, quanta=quanta)

        def makespan(split):
            t = 0.0
            for ex, q in zip(executors, split):
                if q:
                    t = max(t, ex.fixed_s + ex.compute_seconds(scale_flops(flops, q / quanta)) * 1.0)
            return t

        best = min(
            (
                makespan((qa, qb, quanta - qa - qb))
                for qa in range(quanta + 1)
                for qb in range(quanta + 1 - qa)
            )
        )
        assert plan.makespan_s == pytest.approx(best, rel=0.02)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            data_shares_dp({"conv": 1}, 0, [])
        with pytest.raises(ValueError):
            data_shares_dp({"conv": 1}, 0, [_executor("a", 1.0)], quanta=0)

    def test_greedy_proportional(self):
        executors = [_executor("a", 30.0), _executor("b", 10.0)]
        plan = data_shares_greedy({"conv": 10**9}, 0, executors)
        assert plan.shares[0] == pytest.approx(0.75)
        assert sum(plan.shares) == pytest.approx(1.0)


class TestPipelineCutsDP:
    @pytest.fixture(scope="class")
    def segments(self):
        return build_model("tiny_cnn").segments()

    def test_single_fast_executor_takes_all(self, segments):
        executors = [_executor("leader", 100.0), _executor("slow", 1.0, fixed=0.1)]
        plan = pipeline_cuts_dp(segments, executors, source_executor=0)
        assert plan.num_blocks == 1
        assert plan.blocks[0][2] == 0

    def test_blocks_cover_all_segments(self, segments):
        executors = [_executor("a", 5.0), _executor("b", 50.0)]
        plan = pipeline_cuts_dp(segments, executors, source_executor=0)
        assert plan.blocks[0][0] == 0
        assert plan.blocks[-1][1] == len(segments) - 1
        for prev, cur in zip(plan.blocks, plan.blocks[1:]):
            assert cur[0] == prev[1] + 1

    def test_fast_remote_attracts_offload(self, segments):
        executors = [
            _executor("leader", 1.0),
            _executor("beast", 1000.0, comm_mb=1000.0, fixed=0.0001),
        ]
        plan = pipeline_cuts_dp(segments, executors, source_executor=0)
        used = {block[2] for block in plan.blocks}
        assert 1 in used

    def test_latency_not_worse_than_greedy(self, segments):
        executors = [_executor("a", 5.0), _executor("b", 20.0, fixed=0.01)]
        dp_plan = pipeline_cuts_dp(segments, executors, source_executor=0)
        greedy_plan = pipeline_greedy(segments, executors, source_executor=0)
        assert dp_plan.latency_s <= greedy_plan.latency_s + 1e-9

    def test_bottleneck_not_exceeding_latency(self, segments):
        executors = [_executor("a", 5.0), _executor("b", 20.0)]
        plan = pipeline_cuts_dp(segments, executors)
        assert plan.bottleneck_s <= plan.latency_s + 1e-12

    def test_coarsening_limits_segments(self, resnet152):
        segments = resnet152.segments()
        spans = _coarsen(segments, 10)
        assert len(spans) == 10
        assert sum(sum(span[0].values()) for span in spans) == pytest.approx(
            resnet152.total_flops, rel=1e-9
        )
        assert sum(span[4] for span in spans) == sum(seg.num_ops for seg in segments)
        # ranges chain
        assert spans[0][3][0] == 0
        assert spans[-1][3][1] == len(segments) - 1

    def test_empty_inputs_rejected(self, segments):
        with pytest.raises(ValueError):
            pipeline_cuts_dp([], [_executor("a", 1.0)])
        with pytest.raises(ValueError):
            pipeline_cuts_dp(segments, [])

    @pytest.mark.parametrize("fastpath", ["1", "0"])
    @pytest.mark.parametrize("max_segments", [0, -3])
    def test_nonpositive_max_segments_rejected(self, segments, monkeypatch, fastpath, max_segments):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", fastpath)
        executors = [_executor("a", 5.0), _executor("b", 20.0)]
        for search in (pipeline_cuts_dp, pipeline_cuts_dp_reference):
            with pytest.raises(ValueError, match="max_segments"):
                search(segments, executors, max_segments=max_segments)
