"""Batched backlog co-planning tests: explore_data_batch equivalence,
HiDP plan_batch, and LocalDecision sharing across identical processors."""

import dataclasses

import pytest

from repro.core.dse import DataSearchSpec, explore_data, explore_data_batch
from repro.core.hidp import (
    HiDPStrategy,
    device_local_signature,
    relabel_decision,
)
from repro.core.local_partitioner import LocalDecision
from repro.core.memo import clear_result_memos
from repro.core.plans import LOCAL_STAGED, LocalExec, UnitTask
from repro.core.strategy import device_executor_models
from repro.dnn.models import MODEL_NAMES, build_model
from repro.platform.cluster import build_cluster
from repro.platform.specs import build_device


@pytest.fixture(scope="module")
def graphs():
    return [build_model(name) for name in MODEL_NAMES]


@pytest.fixture(scope="module")
def shared_cluster():
    return build_cluster()


class TestExploreDataBatch:
    def test_matches_per_graph_explore(self, graphs, shared_cluster):
        models = device_executor_models(shared_cluster, shared_cluster.devices)
        specs = []
        singles = []
        for graph in graphs:
            segments = graph.segments()
            table = graph.segment_table()
            seg_range = (0, len(segments) - 1)
            specs.append(
                DataSearchSpec(
                    graph=graph, segments=segments, seg_range=seg_range,
                    table=table, min_sigma=2,
                )
            )
            singles.append(
                explore_data(
                    graph, segments, seg_range, models, min_sigma=2, table=table
                )
            )
        batch = explore_data_batch(specs, models)
        assert len(batch) == len(singles)
        for single, batched in zip(singles, batch):
            assert (single is None) == (batched is None)
            if single is not None:
                assert single.cut_segment == batched.cut_segment
                assert single.active == batched.active
                assert single.predicted_s == batched.predicted_s
                assert single.tail_range == batched.tail_range

    def test_empty_batch(self, shared_cluster):
        models = device_executor_models(shared_cluster, shared_cluster.devices)
        assert explore_data_batch([], models) == []


class TestPlanBatch:
    def test_plans_identical_to_sequential(self, graphs, shared_cluster):
        sequential = [HiDPStrategy().plan(graph, shared_cluster) for graph in graphs]
        batched = HiDPStrategy().plan_batch(graphs, shared_cluster)
        assert sequential == batched

    def test_duplicates_share_one_plan(self, graphs, shared_cluster):
        strategy = HiDPStrategy()
        plans = strategy.plan_batch([graphs[0]] * 6, shared_cluster)
        assert all(plan is plans[0] for plan in plans)

    def test_batch_seeds_the_plan_cache(self, graphs, shared_cluster):
        strategy = HiDPStrategy()
        batched = strategy.plan_batch(graphs, shared_cluster)
        for graph, plan in zip(graphs, batched):
            assert strategy.plan(graph, shared_cluster) is plan

    def test_batch_survives_lru_eviction_of_precached_key(self, graphs, shared_cluster):
        """Regression: a batch whose fresh plans evict one of its own
        pre-cached keys from the LRU must not KeyError on return."""
        strategy = HiDPStrategy()
        strategy.PLAN_CACHE_MAX = 1
        cached = strategy.plan(graphs[0], shared_cluster)
        plans = strategy.plan_batch([graphs[0], graphs[1]], shared_cluster)
        assert plans[0] == cached
        assert plans[1].model == graphs[1].name

    def test_respects_load_buckets(self, graphs, shared_cluster):
        strategy = HiDPStrategy()
        load = {device.name: 0.3 for device in shared_cluster.devices[1:]}
        load[shared_cluster.leader.name] = 0.0
        batched = strategy.plan_batch([graphs[2]], shared_cluster, load=load)
        single = HiDPStrategy().plan(graphs[2], shared_cluster, load=load)
        assert batched[0] == single


class TestLocalDecisionSharing:
    def test_relabel_rewrites_prefixes(self):
        tasks = (
            UnitTask(processor="p0", flops_by_class={"conv": 10}, label="old/s0t0"),
            UnitTask(processor="p1", flops_by_class={"conv": 10}, label="old/s0t1"),
            UnitTask(processor="p0", flops_by_class={"conv": 10}, label="old/s1t0"),
        )
        local = LocalExec(
            mode=LOCAL_STAGED, tasks=tasks, stages=(tasks[:2], tasks[2:])
        )
        decision = LocalDecision(local, 0.5)
        relabelled = relabel_decision(decision, "old", "new")
        assert [task.label for task in relabelled.execution.tasks] == [
            "new/s0t0", "new/s0t1", "new/s1t0",
        ]
        assert relabelled.predicted_s == decision.predicted_s
        assert relabelled.execution.stages[0][0].label == "new/s0t0"
        # same-label call is a no-op returning the original object
        assert relabel_decision(decision, "old", "old") is decision

    def test_signature_matches_twin_boards_only(self):
        nano = build_device("jetson_nano")
        twin = dataclasses.replace(nano, name="jetson_nano_b")
        other = build_device("raspberry_pi4")
        assert device_local_signature(nano) == device_local_signature(twin)
        assert device_local_signature(nano) != device_local_signature(other)

    def test_twin_boards_share_local_searches(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")  # the memo is fast-path only
        clear_result_memos()  # so the first board searches
        nano = build_device("jetson_nano")
        twin = dataclasses.replace(nano, name="jetson_nano_b")
        strategy = HiDPStrategy()
        graph = build_model("vgg19")
        decision_a = strategy._plan_piece(
            nano, graph, graph.segments(), (0, 4), None, "a"
        )
        searches = strategy.local_searches
        decision_b = strategy._plan_piece(
            twin, graph, graph.segments(), (0, 4), None, "b"
        )
        assert strategy.local_searches == searches  # no new search
        assert strategy.local_shared == 1
        assert decision_b.predicted_s == decision_a.predicted_s
        assert decision_b.execution.mode == decision_a.execution.mode

    def test_replans_share_local_decisions(self, shared_cluster, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")  # the memo is fast-path only
        strategy = HiDPStrategy()
        graph = build_model("resnet152")
        strategy.plan(graph, shared_cluster, load={d.name: 0.0 for d in shared_cluster.devices})
        strategy.plan(
            graph,
            shared_cluster,
            load={
                d.name: (0.3 if d.name != shared_cluster.leader.name else 0.0)
                for d in shared_cluster.devices
            },
        )
        assert strategy.local_shared > 0