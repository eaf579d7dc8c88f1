"""Equivalence tests for the shared staged local search.

On the DSE fast path a :class:`~repro.core.local_partitioner.
LocalPartitioner` keeps one lazy :class:`~repro.core.dse.
StagedExchangeSearch` per (graph, range end) and shares it across every
piece that ends there.  Each decision must equal a per-stage
:func:`~repro.core.dse.explore_data_exchange` call, whichever piece
computed it first, and :meth:`LocalPartitioner._staged` must produce
identical decisions with the fast path on and off
(``REPRO_DSE_FASTPATH``)."""

import random

import pytest

import repro.core.dse as dse
from repro.core.dp import _executor_signature
from repro.core.dse import StagedExchangeSearch, explore_data_exchange
from repro.core.hidp import HiDPStrategy
from repro.core.local_partitioner import LocalPartitioner, processor_executor_models
from repro.core.memo import Ref
from repro.dnn.models import build_model
from repro.platform.cluster import build_cluster
from repro.platform.specs import DEVICE_NAMES, build_device

STAGED_MODELS = ("tiny_cnn", "tiny_residual", "mobilenet_v2", "vgg19", "resnet152")


def _device(rng):
    return build_device(rng.choice(DEVICE_NAMES))


def _explore(partitioner, graph, start, hi):
    """A fresh per-stage decision, priced exactly as the partitioner does."""
    table = graph.segment_table()
    return explore_data_exchange(
        graph,
        graph.segments(),
        (start, hi),
        partitioner._models,
        intra_latency_s=partitioner.device.intra_latency_s,
        intra_bw_bytes_s=partitioner.device.intra_bw_bytes_s,
        quanta=partitioner.quanta,
        tail_seconds=lambda tail: partitioner._parallel_tail_estimate(table, tail),
        min_sigma=2,
        table=table,
    )


@pytest.fixture
def count_explorations(monkeypatch):
    """Record every ``explore_data_exchange`` call a search makes, as
    (executor values, seg_range)."""
    calls = []
    original = dse.explore_data_exchange

    def counting(graph, segments, seg_range, executors, **kwargs):
        calls.append((_executor_signature(executors), seg_range))
        return original(graph, segments, seg_range, executors, **kwargs)

    monkeypatch.setattr(dse, "explore_data_exchange", counting)
    return calls


class TestStagedSearchSharing:
    @pytest.fixture(autouse=True)
    def _fast_path(self, monkeypatch):
        # Sharing is the fast arm; pin it on whatever the suite's hatch.
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")

    def test_decisions_match_per_stage_calls(self):
        rng = random.Random(97)
        for _ in range(12):
            graph = build_model(rng.choice(STAGED_MODELS))
            device = _device(rng)
            segments = graph.segments()
            table = graph.segment_table()
            models = processor_executor_models(device)
            hi = rng.randrange(0, len(segments))
            quanta = rng.choice([4, 8, 10])
            search = StagedExchangeSearch(
                graph,
                segments,
                hi,
                models,
                intra_latency_s=device.intra_latency_s,
                intra_bw_bytes_s=device.intra_bw_bytes_s,
                quanta=quanta,
                table=table,
            )
            starts = list(range(hi + 1))
            rng.shuffle(starts)
            # Every start, in any order and read twice, resolves to
            # exactly what a fresh exploration of the same range returns.
            for start in starts + starts[: len(starts) // 2]:
                expected = explore_data_exchange(
                    graph,
                    segments,
                    (start, hi),
                    models,
                    intra_latency_s=device.intra_latency_s,
                    intra_bw_bytes_s=device.intra_bw_bytes_s,
                    quanta=quanta,
                    table=table,
                )
                assert search.decide(start) == expected

    def test_random_pieces_on_one_partitioner_match_reference(self, monkeypatch):
        """Pieces of every model, in random order on one partitioner per
        device, read decisions earlier pieces computed; each must equal
        the unshared per-piece reference exactly."""
        rng = random.Random(2025)
        graphs = [build_model(name) for name in STAGED_MODELS]
        partitioners = {
            name: LocalPartitioner(build_device(name), quanta=rng.choice([4, 10]))
            for name in DEVICE_NAMES
        }
        pieces = []
        for graph in graphs:
            last = len(graph.segments()) - 1
            for _ in range(6):
                hi = rng.choice([last, last, rng.randrange(0, last + 1)])
                lo = rng.randrange(0, hi + 1)
                pieces.append((graph, (lo, hi), rng.choice(DEVICE_NAMES)))
        rng.shuffle(pieces)
        for graph, seg_range, name in pieces:
            partitioner = partitioners[name]
            segments, table = graph.segments(), graph.segment_table()
            monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
            shared = partitioner._staged(graph, segments, seg_range, "piece", table)
            monkeypatch.setenv("REPRO_DSE_FASTPATH", "0")
            reference = partitioner._staged(graph, segments, seg_range, "piece", table)
            assert shared == reference
        assert any(partitioner._searches for partitioner in partitioners.values())

    def test_reused_decision_equals_fresh(self):
        graph = build_model("resnet152")
        partitioner = LocalPartitioner(build_device("jetson_tx2"))
        segments, table = graph.segments(), graph.segment_table()
        hi = len(segments) - 1
        partitioner._staged(graph, segments, (0, hi), "first", table)
        search = partitioner._searches.get((Ref(graph), hi))
        computed = dict(search._decisions)
        assert computed
        # A later piece ending at hi reads the same map ...
        start = max(computed)
        partitioner._staged(graph, segments, (start, hi), "second", table)
        assert partitioner._searches.get((Ref(graph), hi)) is search
        # ... and every reused decision equals a freshly computed one.
        for start, decision in computed.items():
            assert search.decide(start) is decision
            assert decision == _explore(partitioner, graph, start, hi)

    def test_blocks_and_tail_compute_each_decision_once(
        self, count_explorations, monkeypatch
    ):
        """resnet152 model-mode blocks, a data tail and the whole model
        on one device: each (start, hi) decision is computed once."""
        reads = []
        original = StagedExchangeSearch.decide

        def counting_decide(search, start):
            reads.append(start)
            return original(search, start)

        monkeypatch.setattr(StagedExchangeSearch, "decide", counting_decide)
        graph = build_model("resnet152")
        partitioner = LocalPartitioner(build_device("jetson_tx2"))
        last = len(graph.segments()) - 1
        pieces = [(0, 20), (21, 60), (61, last), (40, last), (0, last), (21, last)]
        for seg_range in pieces:
            partitioner.plan_piece(graph, seg_range, table=graph.segment_table())
        ranges = [seg_range for _, seg_range in count_explorations]
        assert ranges
        assert len(ranges) == len(set(ranges))
        assert len(reads) > len(ranges)  # later pieces read earlier decisions
        # One search per range end: the pieces ending at `last` shared one.
        ends = {hi for _, hi in pieces}
        assert len(partitioner._searches) == partitioner._searches.misses == len(ends)

    def test_hidp_plan_computes_each_decision_once(self, count_explorations):
        graph = build_model("resnet152", fresh=True)
        HiDPStrategy().plan(graph, build_cluster())
        assert count_explorations
        assert len(count_explorations) == len(set(count_explorations))

    def test_foreign_chain_gets_a_fresh_search(self):
        graph = build_model("mobilenet_v2")
        partitioner = LocalPartitioner(build_device("jetson_orin_nx"))
        segments = list(graph.segments())
        hi = len(segments) - 1
        first = partitioner._shared_search(graph, segments, hi, graph.segment_table())
        second = partitioner._shared_search(graph, segments, hi, graph.segment_table())
        assert first is not second
        assert not partitioner._searches

    def test_stale_id_entry_is_not_reused(self):
        """Searches are keyed by graph identity: an equal graph that is
        another object never reads this graph's search."""
        graph = build_model("tiny_cnn")
        other = build_model("tiny_cnn", fresh=True)
        partitioner = LocalPartitioner(build_device("jetson_orin_nx"))
        hi = len(graph.segments()) - 1
        stale = partitioner._shared_search(other, other.segments(), hi, other.segment_table())
        fresh = partitioner._shared_search(graph, graph.segments(), hi, graph.segment_table())
        assert fresh is not stale
        assert partitioner._shared_search(graph, graph.segments(), hi, graph.segment_table()) is fresh
        assert len(partitioner._searches) == 2

    def test_searches_are_bounded(self, monkeypatch):
        graph = build_model("resnet152")
        monkeypatch.setattr(LocalPartitioner, "SEARCHES_MAX", 3)
        partitioner = LocalPartitioner(build_device("jetson_orin_nx"))
        for hi in range(10, 20):
            partitioner._shared_search(graph, graph.segments(), hi, graph.segment_table())
        kept = [hi for hi in range(10, 20) if (Ref(graph), hi) in partitioner._searches]
        assert kept == [17, 18, 19]
        assert partitioner._searches.evictions == 7

    def test_twin_boards_share_one_partitioner(self):
        strategy = HiDPStrategy()
        orin = strategy._local_partitioner(build_device("jetson_orin_nx"))
        assert strategy._local_partitioner(build_device("jetson_orin_nx")) is orin
        other = next(name for name in DEVICE_NAMES if name != "jetson_orin_nx")
        assert strategy._local_partitioner(build_device(other)) is not orin


class TestStagedDecisionEquivalence:
    @pytest.mark.parametrize("model", STAGED_MODELS)
    def test_staged_fast_matches_reference(self, model, monkeypatch):
        """The full staged loop -- shared lazy search on the fast path,
        one unshared search per piece on the reference -- must emit
        byte-identical local decisions (stages, tasks, predicted
        seconds)."""
        graph = build_model(model)
        rng = random.Random(hash(model) % (2**32))
        for _ in range(3):
            device = _device(rng)
            partitioner = LocalPartitioner(device, quanta=rng.choice([4, 10]))
            segments = graph.segments()
            table = graph.segment_table()
            hi = len(segments) - 1
            lo = rng.randrange(0, max(1, hi))
            monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
            fast = partitioner._staged(graph, segments, (lo, hi), "piece", table)
            monkeypatch.setenv("REPRO_DSE_FASTPATH", "0")
            reference = partitioner._staged(graph, segments, (lo, hi), "piece", table)
            assert fast == reference

    def test_plan_piece_identical_either_way(self, monkeypatch):
        """End to end through the public local-tier API."""
        graph = build_model("mobilenet_v2")
        for name in DEVICE_NAMES[:3]:
            device = build_device(name)
            partitioner = LocalPartitioner(device)
            monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
            fast = partitioner.plan_piece(graph, (0, len(graph.segments()) - 1), label="x")
            monkeypatch.setenv("REPRO_DSE_FASTPATH", "0")
            reference = partitioner.plan_piece(
                graph, (0, len(graph.segments()) - 1), label="x"
            )
            assert fast == reference
