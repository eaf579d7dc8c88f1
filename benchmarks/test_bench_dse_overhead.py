"""Bench: DSE overhead (Sec. III middleware paragraph) + regression gate.

"The overhead of using DP algorithm-based exploration including both
global and local partitioning is 15 ms on average."  The first bench
measures the wall-clock of one cold HiDP planning pass and asserts it
stays in the tens of milliseconds on commodity hardware.

The second bench is the fast-path regression gate: it times HiDP
planning per model x cluster size with the vectorized DSE fast path on
(warm graph caches, pipeline geometries and partitions, the
steady-state a serving middleware sees) against the pure-Python
reference kernels on cold graphs (the seed behaviour), writes the
``BENCH_dse.json`` artifact at the repo root so future PRs can track
the perf trajectory, and asserts the fast path is at least 5x faster
for HiDP on the ResNet-scale graph with a 4-device cluster.  Plan
equality between the two paths is enforced separately by
``tests/core/test_dp_fastpath.py``.  The share and pipeline DPs keep
no result memo, so every timed plan runs every DP call: an exact
repeat of one plan, which these warm rows time, is the only pattern
such a memo ever served (under 5% of its lookups hit on the serving
workloads).

The same artifact records a cold load sweep: each model planned under
``SWEEP_LOADS`` distinct load vectors, result memos cleared and a fresh
strategy at the start of each sweep, on both paths in one process --
the replan-under-churn pattern the load-invariant pipeline geometry
memo serves.  The sweep asserts both paths plan identically and
records their ratio; it has no gate.
"""

import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.core.hidp as hidp
from repro.core.dp import clear_result_memos
from repro.core.hidp import HiDPStrategy
from repro.dnn.models import MODEL_NAMES, build_model
from repro.platform.cluster import build_cluster
from repro.platform.specs import DEVICE_NAMES

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dse.json"
CLUSTER_SIZES = (2, 4)
GATE_MODEL = "resnet152"
GATE_DEVICES = 4
GATE_MIN_SPEEDUP = 5.0
SWEEP_LOADS = 8
SWEEP_REPEATS = 3


def forget_plans():
    """Empty the process-lifetime plan, local-decision and local
    partitioner memos, so the next plan runs the whole global and local
    search; the pipeline-geometry and partition memos stay warm."""
    for memo in (hidp._PLANS, hidp._LOCAL_DECISIONS, hidp._LOCAL_PARTITIONERS):
        memo.clear()


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_bench_dse_overhead(benchmark, cluster, model):
    graph = build_model(model)
    graph.segments()  # segment extraction is cached on the graph

    def plan_cold():
        forget_plans()
        strategy = HiDPStrategy()
        return strategy.plan(graph, cluster)

    plan = benchmark(plan_cold)
    assert plan.predicted_latency_s > 0
    # generous bound: interpreted Python on CI vs the paper's 15 ms
    assert benchmark.stats["mean"] < 0.25


@contextmanager
def _fastpath_env(value):
    """Pin REPRO_DSE_FASTPATH for a measurement, restoring the caller's
    setting afterwards (the suite may run with the escape hatch set)."""
    previous = os.environ.get("REPRO_DSE_FASTPATH")
    os.environ["REPRO_DSE_FASTPATH"] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_DSE_FASTPATH", None)
        else:
            os.environ["REPRO_DSE_FASTPATH"] = previous


def _time_reference_cold(model, cluster, repeats=3):
    """Seed behaviour: pure-Python kernels, cold graph caches per plan."""
    times = []
    with _fastpath_env("0"):
        for _ in range(repeats):
            graph = build_model(model, fresh=True)
            start = time.perf_counter()
            HiDPStrategy().plan(graph, cluster)
            times.append(time.perf_counter() - start)
    return times


def _time_fastpath_warm(model, cluster, repeats=5):
    """Fast path in steady state: shared graph, warm pipeline-geometry
    and partition memos, fresh strategy per plan.  The plan and
    local-tier memos are emptied before each timed plan, which would
    otherwise time a memo lookup."""
    times = []
    with _fastpath_env("1"):
        graph = build_model(model, fresh=True)
        HiDPStrategy().plan(graph, cluster)  # warm the plan-level caches once
        for _ in range(repeats):
            forget_plans()
            start = time.perf_counter()
            HiDPStrategy().plan(graph, cluster)
            times.append(time.perf_counter() - start)
    return times


def _sweep_loads(cluster, count, seed=0):
    """``count`` load vectors in distinct load buckets: each device's
    backlog draws from [0, 0.5) s."""
    rng = random.Random(seed)
    loads, keys = [], set()
    strategy = HiDPStrategy()
    while len(loads) < count:
        load = {device.name: rng.uniform(0.0, 0.5) for device in cluster.devices}
        key = strategy.load_key(load)
        if key not in keys:
            keys.add(key)
            loads.append(load)
    return loads


def _cold_load_sweep(model, cluster, loads, hatch):
    """Best-of-``SWEEP_REPEATS`` wall-clock of planning ``model`` under
    every load, memos cleared and a fresh strategy before each sweep,
    and the plans of the last sweep."""
    graph = build_model(model, fresh=True)
    graph.segment_table()
    best, plans = float("inf"), None
    with _fastpath_env(hatch):
        for _ in range(SWEEP_REPEATS):
            clear_result_memos()
            strategy = HiDPStrategy()
            start = time.perf_counter()
            plans = [strategy.plan(graph, cluster, load=load) for load in loads]
            best = min(best, time.perf_counter() - start)
    return best, plans


def _cold_load_sweep_rows():
    cluster = build_cluster(DEVICE_NAMES[:GATE_DEVICES])
    loads = _sweep_loads(cluster, SWEEP_LOADS)
    rows = []
    for model in MODEL_NAMES:
        old_s, old_plans = _cold_load_sweep(model, cluster, loads, "0")
        new_s, new_plans = _cold_load_sweep(model, cluster, loads, "1")
        assert new_plans == old_plans, f"{model}: fast and reference plans differ"
        rows.append(
            {
                "model": model,
                "devices": GATE_DEVICES,
                "loads": len(loads),
                "old_s": old_s,
                "new_s": new_s,
                "speedup": old_s / new_s,
            }
        )
    return rows


def test_bench_dse_fastpath_regression_gate():
    sweep = _cold_load_sweep_rows()
    rows = []
    for model in MODEL_NAMES:
        for num_devices in CLUSTER_SIZES:
            cluster = build_cluster(DEVICE_NAMES[:num_devices])
            old = _time_reference_cold(model, cluster)
            new = _time_fastpath_warm(model, cluster)
            old_mean = sum(old) / len(old)
            new_mean = sum(new) / len(new)
            rows.append(
                {
                    "model": model,
                    "devices": num_devices,
                    "old_mean_s": old_mean,
                    "old_min_s": min(old),
                    "new_mean_s": new_mean,
                    "new_min_s": min(new),
                    "speedup_mean": old_mean / new_mean,
                    "speedup_min": min(old) / min(new),
                }
            )

    artifact = {
        "bench": "dse_planning_time",
        "description": (
            "HiDP planning wall-clock per model x cluster size: reference "
            "kernels on cold graphs (old, seed behaviour) vs vectorized "
            "fast path with warm plan-level caches (new, steady state)."
        ),
        "gate": {
            "model": GATE_MODEL,
            "devices": GATE_DEVICES,
            "min_speedup": GATE_MIN_SPEEDUP,
        },
        "results": rows,
        "cold_load_sweep": {
            "description": (
                "Same process: each model planned under distinct load vectors "
                "with result memos cleared and a fresh strategy per sweep, "
                "REPRO_DSE_FASTPATH=0 (old) vs the fast path (new); best of "
                f"{SWEEP_REPEATS} sweeps; plans asserted equal; no gate."
            ),
            "results": sweep,
        },
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")

    for row in rows:
        print(
            f"{row['model']:>16} x{row['devices']}dev  "
            f"old {row['old_mean_s'] * 1e3:7.2f} ms  "
            f"new {row['new_mean_s'] * 1e3:6.2f} ms  "
            f"{row['speedup_mean']:.1f}x (min-based {row['speedup_min']:.1f}x)"
        )
    for row in sweep:
        print(
            f"{row['model']:>16} cold sweep x{row['loads']} loads  "
            f"old {row['old_s'] * 1e3:7.2f} ms  new {row['new_s'] * 1e3:6.2f} ms  "
            f"{row['speedup']:.1f}x"
        )

    gate = next(
        row
        for row in rows
        if row["model"] == GATE_MODEL and row["devices"] == GATE_DEVICES
    )
    # min-of-N is the noise-robust comparison; means are recorded for trend
    assert gate["speedup_min"] >= GATE_MIN_SPEEDUP, (
        f"DSE fast path regressed: {gate['speedup_min']:.2f}x < "
        f"{GATE_MIN_SPEEDUP}x for {GATE_MODEL} on {GATE_DEVICES} devices "
        f"(old {gate['old_min_s'] * 1e3:.2f} ms, new {gate['new_min_s'] * 1e3:.2f} ms)"
    )
