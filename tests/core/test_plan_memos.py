"""The process-lifetime planning memos of :mod:`repro.core.hidp` are
keyed on every input a plan reads.

A memoised plan is read by any strategy with an equal key, so a key
that leaves out one input hands one configuration's plan to another.
The differential test below varies each planning input in turn -- every
constructor parameter, the DisNet and MoDNN subclasses, instance-level
attributes, a device's processors, the network, availability, the
leader and the raw load -- and checks that plans made in a random
interleaving with warm memos equal plans made from cold ones.
"""

import dataclasses
import random

import pytest

import repro.core.hidp as hidp_module
from repro.baselines.disnet import DisNetStrategy
from repro.baselines.modnn import MoDNNFTPStrategy
from repro.comm.network import WirelessNetwork
from repro.core.hidp import OBJECTIVE_ENERGY, HiDPStrategy
from repro.core.memo import clear_result_memos
from repro.core.plans import MODE_DATA, MODE_MODEL
from repro.core.strategy import AGGREGATE_DEFAULT
from repro.dnn.graph import DNNGraph
from repro.dnn.models import build_model
from repro.platform.cluster import Cluster, build_cluster

GRAPHS = ("mobilenet_v2", "efficientnet_b0", "vgg19")
ORIN = "jetson_orin_nx"


class _NoModelMode(HiDPStrategy):
    """Same name and attributes as HiDP; only its class plans differently."""

    def _candidate_model(self, *args, **kwargs):
        return None


def _with(strategy, **attributes):
    for name, value in attributes.items():
        setattr(strategy, name, value)
    return strategy


def _faster_orin_gpu():
    cluster = build_cluster()
    devices = list(cluster.devices)
    index = next(i for i, device in enumerate(devices) if device.name == ORIN)
    orin = devices[index]
    processors = tuple(
        dataclasses.replace(proc, frequency_hz=proc.frequency_hz * 3)
        if proc.kind == "gpu"
        else proc
        for proc in orin.processors
    )
    devices[index] = dataclasses.replace(orin, processors=processors)
    return Cluster(devices=tuple(devices), network=cluster.network, name=cluster.name)


def _slow_network():
    cluster = build_cluster()
    network = WirelessNetwork(bandwidth_bytes_s=cluster.network.bandwidth_bytes_s / 4)
    return Cluster(devices=cluster.devices, network=network, name=cluster.name)


def _without_orin():
    cluster = build_cluster()
    cluster.set_available(ORIN, False)
    return cluster


#: name -> (strategy factory, cluster factory, plan keyword arguments).
VARIANTS = {
    "base": (HiDPStrategy, build_cluster, {}),
    "quanta": (lambda: HiDPStrategy(quanta=4), build_cluster, {}),
    "local_quanta": (lambda: HiDPStrategy(local_quanta=2), build_cluster, {}),
    "aggregation": (lambda: HiDPStrategy(aggregation=AGGREGATE_DEFAULT), build_cluster, {}),
    "local_data": (lambda: HiDPStrategy(local_data=False), build_cluster, {}),
    "local_pipeline": (lambda: HiDPStrategy(local_pipeline=False), build_cluster, {}),
    "global_only": (
        lambda: HiDPStrategy(local_data=False, local_pipeline=False),
        build_cluster,
        {},
    ),
    "global_only_unpinned": (
        lambda: _with(HiDPStrategy(local_data=False, local_pipeline=False), pinned=False),
        build_cluster,
        {},
    ),
    "data_only": (lambda: HiDPStrategy(allowed_modes=(MODE_DATA,)), build_cluster, {}),
    "model_only": (lambda: HiDPStrategy(allowed_modes=(MODE_MODEL,)), build_cluster, {}),
    "max_pipeline_segments": (
        lambda: HiDPStrategy(max_pipeline_segments=2),
        build_cluster,
        {},
    ),
    "max_cuts": (lambda: HiDPStrategy(max_cuts=1), build_cluster, {}),
    "objective": (lambda: HiDPStrategy(objective=OBJECTIVE_ENERGY), build_cluster, {}),
    "disnet": (DisNetStrategy, build_cluster, {}),
    "disnet_full_rates": (
        lambda: DisNetStrategy(aggregation="all"),
        build_cluster,
        {},
    ),
    "modnn_ftp": (MoDNNFTPStrategy, build_cluster, {}),
    "subclass": (_NoModelMode, build_cluster, {}),
    "instance_overhead": (lambda: _with(HiDPStrategy(), dse_overhead_s=0.02), build_cluster, {}),
    "instance_name": (lambda: _with(HiDPStrategy(), name="hidp_b"), build_cluster, {}),
    "processors": (HiDPStrategy, _faster_orin_gpu, {}),
    "network": (HiDPStrategy, _slow_network, {}),
    "availability": (HiDPStrategy, _without_orin, {}),
    "leader": (HiDPStrategy, build_cluster, {"leader": ORIN}),
    "load": (HiDPStrategy, build_cluster, {"load": {ORIN: 0.001}}),
    # Same 50 ms load bucket as "load": plans are memoised on the raw load.
    "load_same_bucket": (HiDPStrategy, build_cluster, {"load": {ORIN: 0.045}}),
}


def _plan(name, graph, batched):
    make_strategy, make_cluster, kwargs = VARIANTS[name]
    strategy = make_strategy()
    if batched:
        return strategy.plan_batch([graph], make_cluster(), **kwargs)[0]
    return strategy.plan(graph, make_cluster(), **kwargs)


@pytest.fixture(scope="module")
def cold_plans():
    """Every variant's plans, each computed from cold memos."""
    graphs = [build_model(name) for name in GRAPHS]
    plans = {}
    for name in VARIANTS:
        for graph in graphs:
            clear_result_memos()
            plans[name, graph.name] = _plan(name, graph, batched=False)
    clear_result_memos()
    return plans


class TestKeyCompleteness:
    def test_every_variant_plans_differently(self, cold_plans):
        """Each variant changes some plan, so a key that misses its
        input would hand it another variant's plan."""
        for name in VARIANTS:
            if name != "base":
                assert any(
                    cold_plans[name, graph] != cold_plans["base", graph]
                    for graph in GRAPHS
                ), name
        assert any(
            cold_plans["load", graph] != cold_plans["load_same_bucket", graph]
            for graph in GRAPHS
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_interleaving_equals_cold_plans(self, cold_plans, seed, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
        rng = random.Random(seed)
        graphs = {name: build_model(name) for name in GRAPHS}
        calls = [(name, graph) for name in VARIANTS for graph in GRAPHS] * 2
        rng.shuffle(calls)
        clear_result_memos()
        for name, graph in calls:
            plan = _plan(name, graphs[graph], batched=rng.random() < 0.5)
            assert plan == cold_plans[name, graph], (name, graph)
        assert hidp_module._PLANS.hits and hidp_module._LOCAL_DECISIONS.hits


class TestPlanningSignatures:
    def test_equal_clusters_share_one_token(self):
        first, second = build_cluster(), build_cluster()
        assert first.planning_signature() is second.planning_signature()
        assert _slow_network().planning_signature() is not first.planning_signature()

    def test_availability_and_assignment_invalidate(self):
        cluster = build_cluster()
        token = cluster.planning_signature()
        cluster.set_available(ORIN, False)
        assert cluster.planning_signature() is not token
        cluster.set_available(ORIN, True)
        assert cluster.planning_signature() is token
        cluster.network = WirelessNetwork(bandwidth_bytes_s=1e6)
        assert cluster.planning_signature() is not token

    def test_strategy_signature_reads_attributes_now(self):
        strategy = HiDPStrategy()
        before = strategy.planning_signature()
        strategy.dse_overhead_s = 0.5
        assert strategy.planning_signature() != before
        assert HiDPStrategy().planning_signature() == before
        assert DisNetStrategy().planning_signature() != before

    def test_graphs_key_by_identity(self):
        """Memos key on the graph itself: ``DNNGraph`` keeps object
        identity as its equality and hash, so a rebuilt graph misses."""
        assert DNNGraph.__eq__ is object.__eq__
        assert DNNGraph.__hash__ is object.__hash__
        graph = build_model("tiny_cnn")
        rebuilt = build_model("tiny_cnn", fresh=True)
        assert graph != rebuilt and graph == graph
        assert len({graph, rebuilt}) == 2


class TestCountersStayPerStrategy:
    def test_each_strategy_counts_its_own_lookups(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
        clear_result_memos()
        graph = build_model("resnet152")
        first = HiDPStrategy()
        first.plan(graph, build_cluster())
        assert first.local_searches > 0
        second = HiDPStrategy()
        second.plan(graph, build_cluster(), load={ORIN: 0.2})
        assert second.local_shared > 0
        assert second.local_searches < first.local_searches

    def test_reference_arm_leaves_the_memos_empty(self, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_FASTPATH", "0")
        clear_result_memos()
        strategy = HiDPStrategy()
        strategy.plan(build_model("mobilenet_v2"), build_cluster())
        memos = (
            hidp_module._PLANS,
            hidp_module._LOCAL_DECISIONS,
            hidp_module._LOCAL_PARTITIONERS,
        )
        assert [len(memo) for memo in memos] == [0, 0, 0]
        assert (strategy.local_searches, strategy.local_shared) == (0, 0)
