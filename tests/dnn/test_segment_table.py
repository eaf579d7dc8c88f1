"""SegmentTable: prefix-sum range queries must match segment rescans
exactly, and the graph-level memos must be shared across calls."""

import pytest

from repro.dnn.layers import LAYER_CLASSES
from repro.dnn.models import build_model
from repro.dnn.partition import spatial_prefix
from repro.dnn.segment_table import SegmentTable, jaccard_similarity


def _scan_flops(segments, lo, hi):
    flops = {cls: 0 for cls in LAYER_CLASSES}
    for seg in segments[lo : hi + 1]:
        for cls, value in seg.flops_by_class.items():
            flops[cls] += value
    return flops


class TestRangeQueries:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_model("mobilenet_v2")

    @pytest.fixture(scope="class")
    def table(self, graph):
        return graph.segment_table()

    def test_matches_rescan_everywhere(self, graph, table):
        segments = graph.segments()
        n = len(segments)
        for lo in range(n):
            for hi in range(lo, n):
                expected = _scan_flops(segments, lo, hi)
                got = table.range_flops(lo, hi)
                assert got == expected
                assert list(got) == list(LAYER_CLASSES)  # canonical key order
                assert table.range_ops(lo, hi) == sum(
                    seg.num_ops for seg in segments[lo : hi + 1]
                )
                assert table.range_flops_total(lo, hi) == sum(
                    seg.flops for seg in segments[lo : hi + 1]
                )

    def test_empty_range_prices_to_zero(self, table):
        assert table.range_flops(5, 4) == {cls: 0 for cls in LAYER_CLASSES}
        assert table.range_ops(5, 4) == 0
        assert table.range_flops_total(5, 4) == 0

    def test_out_of_range_rejected(self, table):
        with pytest.raises(IndexError):
            table.range_flops(0, len(table))
        with pytest.raises(IndexError):
            table.range_ops(-1, 0)

    def test_boundary_bytes(self, graph, table):
        segments = graph.segments()
        assert table.in_bytes(0) == segments[0].in_spec.size_bytes
        assert table.out_bytes(3) == segments[3].out_spec.size_bytes

    def test_spatial_prefix_end_matches_scan(self, graph, table):
        segments = graph.segments()
        n = len(segments)
        for lo in range(n):
            for hi in (lo, (lo + n - 1) // 2, n - 1):
                if hi < lo:
                    continue
                expected_lo, expected_p = spatial_prefix(
                    graph, list(segments), (lo, hi)  # list copy: forces the scan path
                )
                assert expected_lo == lo
                assert table.spatial_prefix_end(lo, hi) == expected_p

    def test_chain_slice_memoised(self, table):
        assert table.chain_slice(2, 7) is table.chain_slice(2, 7)
        assert table.chain_slice(2, 7) == table.segments[2:8]


class TestGraphMemoisation:
    def test_segments_cached(self):
        graph = build_model("tiny_cnn")
        assert graph.segments() is graph.segments()

    def test_segment_table_cached_and_consistent(self):
        graph = build_model("tiny_residual")
        table = graph.segment_table()
        assert table is graph.segment_table()
        assert table.segments is graph.segments()
        assert table.range_flops(0, len(table) - 1) == _scan_flops(
            graph.segments(), 0, len(table) - 1
        )

    def test_demand_rows_caller_owns_returned_dict(self):
        graph = build_model("tiny_cnn")
        first = graph.demand_rows(graph.layers[-1].name, 0, 4)
        first[graph.layers[0].name] = (99, 99)  # each call returns a fresh dict
        second = graph.demand_rows(graph.layers[-1].name, 0, 4)
        assert second[graph.layers[0].name] != (99, 99)

    def test_standalone_table_from_any_sequence(self):
        graph = build_model("tiny_branchy")
        sub = graph.segments()[1:]
        table = SegmentTable(sub)
        assert len(table) == len(sub)
        assert table.range_flops(0, len(sub) - 1) == _scan_flops(sub, 0, len(sub) - 1)


class TestSignature:
    """Plan-structure signatures (ISSUE 7): the token set the serving
    specialization layer clusters models by."""

    def test_tokens_are_structural_triples(self):
        table = build_model("tiny_cnn").segment_table()
        signature = table.signature()
        assert isinstance(signature, frozenset)
        assert signature
        for dominant, spatial, magnitude in signature:
            assert dominant in LAYER_CLASSES
            assert isinstance(spatial, bool)
            # bit_length of the segment FLOPs total (0 for pure
            # data-movement segments)
            assert magnitude >= 0

    def test_memoised_on_the_table(self):
        table = build_model("tiny_cnn").segment_table()
        assert table.signature() is table.signature()

    def test_deterministic_across_fresh_builds(self):
        first = build_model("mobilenet_v2").segment_table().signature()
        second = build_model("mobilenet_v2").segment_table().signature()
        assert first == second

    def test_distinct_families_have_distinct_signatures(self):
        assert (
            build_model("vgg19").segment_table().signature()
            != build_model("tiny_cnn").segment_table().signature()
        )


class TestJaccardSimilarity:
    def test_identical_sets_score_one(self):
        tokens = frozenset({("conv", True, 20), ("fc", False, 18)})
        assert jaccard_similarity(tokens, tokens) == 1.0

    def test_empty_empty_is_identical(self):
        assert jaccard_similarity(frozenset(), frozenset()) == 1.0

    def test_empty_versus_nonempty_is_zero(self):
        assert jaccard_similarity(frozenset(), frozenset({("conv", True, 20)})) == 0.0

    def test_symmetric_and_bounded(self):
        a = build_model("tiny_cnn").segment_table().signature()
        b = build_model("tiny_residual").segment_table().signature()
        assert jaccard_similarity(a, b) == jaccard_similarity(b, a)
        assert 0.0 <= jaccard_similarity(a, b) <= 1.0

    def test_partial_overlap_counts_tokens(self):
        a = frozenset({("conv", True, 20), ("fc", False, 18)})
        b = frozenset({("conv", True, 20), ("pool", True, 12)})
        assert jaccard_similarity(a, b) == pytest.approx(1.0 / 3.0)
