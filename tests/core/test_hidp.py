"""HiDP strategy tests: planning decisions and hierarchy."""

import pytest

from repro.core.hidp import HiDPStrategy
from repro.core.memo import clear_result_memos
from repro.core.plans import MODE_DATA, MODE_LOCAL, MODE_MODEL
from repro.core.strategy import AGGREGATE_DEFAULT
from repro.dnn.models import MODEL_NAMES, build_model


@pytest.fixture()
def strategy():
    return HiDPStrategy()


class TestPlanning:
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_plans_all_models(self, strategy, cluster, model):
        plan = strategy.plan(build_model(model), cluster)
        assert plan.mode in (MODE_DATA, MODE_MODEL, MODE_LOCAL)
        assert plan.strategy == "hidp"
        assert plan.predicted_latency_s > 0
        assert plan.dse_overhead_s == pytest.approx(0.015)

    def test_efficientnet_keeps_leader_working(self, strategy, cluster):
        """Small inputs make shipping the whole 600 KB image pointless;
        the leader must carry a share of the work (unlike the heavy
        models, which may be offloaded wholesale)."""
        plan = strategy.plan(build_model("efficientnet_b0"), cluster)
        assert "jetson_tx2" in plan.devices
        assert set(plan.devices) <= {"jetson_tx2", "jetson_orin_nx"}

    def test_heavy_models_use_orin(self, strategy, cluster):
        for model in ("resnet152", "vgg19"):
            plan = strategy.plan(build_model(model), cluster)
            assert "jetson_orin_nx" in plan.devices

    def test_tasks_are_pinned(self, strategy, cluster):
        plan = strategy.plan(build_model("resnet152"), cluster)
        for assignment in plan.assignments:
            for task in assignment.local.tasks:
                assert task.pinned

    def test_explores_both_modes(self, strategy, cluster):
        plan = strategy.plan(build_model("resnet152"), cluster)
        assert len(plan.notes["explored"]) >= 2

    def test_leader_must_be_available(self, strategy, cluster):
        cluster.set_available("jetson_tx2", False)
        with pytest.raises(RuntimeError):
            strategy.plan(build_model("vgg19"), cluster)

    def test_unavailable_node_not_used(self, strategy, cluster):
        cluster.set_available("jetson_orin_nx", False)
        plan = strategy.plan(build_model("resnet152"), cluster)
        assert "jetson_orin_nx" not in plan.devices

    def test_single_node_cluster_local(self, strategy, cluster):
        sub = cluster.subcluster(1)
        plan = strategy.plan(build_model("resnet152"), sub)
        assert plan.mode == MODE_LOCAL
        assert plan.devices == ("jetson_tx2",)


class TestCaching:
    def test_same_conditions_cached(self, strategy, cluster):
        graph = build_model("vgg19")
        assert strategy.plan(graph, cluster) is strategy.plan(graph, cluster)

    def test_availability_changes_invalidate(self, strategy, cluster):
        graph = build_model("vgg19")
        plan_before = strategy.plan(graph, cluster)
        cluster.set_available("jetson_orin_nx", False)
        plan_after = strategy.plan(graph, cluster)
        assert plan_before is not plan_after

    def test_load_buckets_cache_key(self, strategy, cluster):
        graph = build_model("vgg19")
        base = strategy.plan(graph, cluster, load={"jetson_orin_nx": 0.0})
        similar = strategy.plan(graph, cluster, load={"jetson_orin_nx": 0.01})
        different = strategy.plan(graph, cluster, load={"jetson_orin_nx": 3.0})
        assert base is similar  # same 50 ms bucket
        assert base is not different

    def test_cache_keys_layout(self, strategy, cluster):
        graphs = [build_model("vgg19"), build_model("resnet152")]
        load = {"jetson_orin_nx": 0.12, "jetson_tx2": 0.0}
        shared = (
            cluster.availability_signature(),
            cluster.leader.name,
            (("jetson_orin_nx", 2), ("jetson_tx2", 0)),
        )
        assert strategy.cache_keys(graphs, cluster, load) == [
            ("vgg19", cluster.name) + shared,
            ("resnet152", cluster.name) + shared,
        ]
        assert strategy.cache_keys(graphs[:1], cluster, load, partition=3) == [
            (3, "vgg19", cluster.name) + shared
        ]
        # plan, plan_batch and uncached_plans all key through it.
        plans = strategy.plan_batch(graphs, cluster, load=load, partition=3)
        assert strategy.uncached_plans(graphs, cluster, load=load, partition=3) == 0
        assert strategy.plan(graphs[1], cluster, load=load, partition=3) is plans[1]

    def test_clear_cache(self, strategy, cluster):
        graph = build_model("vgg19")
        first = strategy.plan(graph, cluster)
        strategy.clear_cache()
        assert strategy.uncached_plans([graph], cluster) == 1
        # The process-lifetime plan memo outlives the strategy's cache;
        # emptied too, the plan is computed again, equal to the first.
        clear_result_memos()
        again = strategy.plan(graph, cluster)
        assert again is not first
        assert again == first


class TestLoadAwareness:
    def test_backlogged_node_avoided(self, strategy, cluster):
        graph = build_model("resnet152")
        idle_plan = strategy.plan(graph, cluster)
        assert "jetson_orin_nx" in idle_plan.devices
        busy_plan = strategy.plan(graph, cluster, load={"jetson_orin_nx": 60.0})
        assert "jetson_orin_nx" not in busy_plan.devices


class TestAblations:
    def test_global_only_uses_default_processor(self, cluster):
        strategy = HiDPStrategy(local_data=False, local_pipeline=False)
        plan = strategy.plan(build_model("resnet152"), cluster)
        for assignment in plan.assignments:
            assert assignment.local.mode == "single"

    def test_data_only_mode(self, cluster):
        strategy = HiDPStrategy(allowed_modes=(MODE_DATA,))
        plan = strategy.plan(build_model("resnet152"), cluster)
        assert plan.mode in (MODE_DATA, MODE_LOCAL)
        assert "model" not in plan.notes["explored"]

    def test_model_only_mode(self, cluster):
        strategy = HiDPStrategy(allowed_modes=(MODE_MODEL,))
        plan = strategy.plan(build_model("vgg19"), cluster)
        assert "data" not in plan.notes["explored"]

    def test_default_aggregation_misrepresents_capacity(self, cluster):
        full = HiDPStrategy()
        narrow = HiDPStrategy(aggregation=AGGREGATE_DEFAULT)
        graph = build_model("resnet152")
        # both plan, but the narrow view must not predict faster
        assert (
            full.plan(graph, cluster).predicted_latency_s
            <= narrow.plan(graph, cluster).predicted_latency_s + 0.05
        )


class TestParameterValidation:
    @pytest.mark.parametrize(
        "field", ["quanta", "local_quanta", "max_cuts", "max_pipeline_segments"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            HiDPStrategy(**{field: value})

    @pytest.mark.parametrize("modes", [("nope",), (), (MODE_DATA, MODE_LOCAL)])
    def test_bad_allowed_modes_rejected_at_construction(self, modes):
        with pytest.raises(ValueError, match="allowed_modes"):
            HiDPStrategy(allowed_modes=modes)

    def test_bad_aggregation_rejected_at_construction(self):
        with pytest.raises(ValueError, match="aggregation"):
            HiDPStrategy(aggregation="bogus")

    def test_allowed_modes_stored_as_a_tuple(self):
        strategy = HiDPStrategy(allowed_modes=[MODE_MODEL])
        assert strategy.allowed_modes == (MODE_MODEL,)

    def test_minimal_counts_plan(self, cluster):
        strategy = HiDPStrategy(quanta=1, local_quanta=1, max_cuts=1, max_pipeline_segments=1)
        plan = strategy.plan(build_model("tiny_cnn"), cluster)
        assert plan.assignments
