"""Bench: online serving + the batched co-planning and sharding gates.

Three measurements, one artifact (``BENCH_serving.json``):

1. **Co-planning gate.**  A 16-request backlog (round-robin over the
   four evaluation models) is planned two ways: sequentially -- a fresh
   planner pass per request, the naive per-request scheduler -- and
   through one ``plan_batch`` co-planning pass, which dedups duplicate
   models and prices every distinct model's candidate cuts in a single
   batched share-DP sweep.  The gate asserts the batched pass is
   faster; plan equality between the two paths is asserted outright.

2. **Sustained-load serving.**  The Fig. 9 seeded Poisson stream (120
   requests) runs through the online scheduler; p50/p95/p99, SLO
   attainment and scheduler counters are recorded for trend tracking,
   and the capacity-1 no-overlap invariant is asserted on every
   station.

3. **Sharding gate.**  The Fig. 9 seeded bursty stream (120 requests)
   runs through the :class:`~repro.serving.ShardedScheduler` at 1, 2
   and 4 leader dispatchers (measured-bucket planning overhead on, so
   DSE time is on the latency path).  The gate asserts the 2-leader
   configuration's p99 end-to-end latency is no worse than the
   single-leader's on this pinned, fully deterministic stream:
   sharding pipelines batch planning against execution, and a
   scheduler change that pushes the 2-leader tail above the
   single-leader tail here deserves a look even when it is not a bug
   (the margin at the seed config is small -- percents, not
   multiples -- because the stream saturates the cluster).

4. **Leader-placement gate** (ISSUE 5).  The Fig. 10 seeded
   light-model burst stream (120 requests whose plans are
   leader-*local*) runs at 4 shards with the shared ``devices[0]``
   leader and with per-shard distributed physical leaders.  Shared
   serialises every light request on one board; distributed runs each
   shard on its own leader, so the gate asserts the distributed
   4-leader p99 is below the shared 4-leader p99 (at the seed config
   the p50 drops several-fold and the p99 by ~7%).  The heavy-model
   streams stay shared-led: fan-out from one leader is the capacity
   frontier for big DNNs, which the sweep records for contrast.

5. **Churn-recovery gate** (ISSUE 6).  The Fig. 11 sweep serves the
   seeded heavy-model Poisson stream under seeded fault injection
   (churn level x recovery policy x strategy) and records SLO
   attainment -- shed requests count as misses -- plus the exact
   failure/retry/shed accounting.  The gate asserts that under
   moderate churn HiDP with the retry policy *strictly* beats HiDP
   with recovery disabled (``max_retries=0``: first failure sheds),
   and that the moderate timeline actually produced failures, so the
   comparison cannot degenerate to a tie on a quiet seed.

6. **Specialization gate** (ISSUE 7).  The Fig. 12 sweep serves the
   seeded *skewed* light-model burst stream (one architecture family
   dominating) through the three admission routers at 4 shards: legacy
   ``hash`` and ``affinity`` in the legacy shared-leader configuration,
   and the ``clustered`` adaptive stack (workload-clustered shard
   specialties re-computed every epoch, cost-aware spill routing,
   partitioned plan cache, per-epoch leader re-election).  The gate
   asserts the clustered stack beats *both* legacy routers on p99
   end-to-end latency and on SLO attainment at the fig12 SLO, for
   every swept epoch length, and that the epoch machinery actually ran
   (epochs > 0 with at least one leader re-election).

7. **Control-plane gate** (ISSUE 9).  The Fig. 13 sweep runs the two
   adversarial fig10 streams (light bursts reward a wide in-flight
   window; the heavy stream saturates the cluster and punishes one)
   under three static windows and under the stream-blind AIMD
   controller, plus the fig11 churn timelines with and without
   breaker-enabled control.  The gate asserts the controller lands
   within 10% of the best static configuration's p99 and SLO
   attainment on both streams and strictly beats the worst static p99
   on both; breaker-enabled control never loses SLO attainment to
   no-control under churn, and the hostile timeline actually trips a
   breaker.

The result memos in ``repro.core.dp`` are cleared before every timed
pass so neither path is subsidised by the other's warm cache.
"""

import json
import time
from pathlib import Path

import repro.core.hidp as hidp
from repro.core.dp import clear_result_memos
from repro.core.hidp import HiDPStrategy
from repro.dnn.models import MODEL_NAMES, build_model
from repro.experiments.fig9_serving import SLO_S, build_arrivals
from repro.experiments.fig10_scaleout import build_arrivals as build_fig10_arrivals
from repro.experiments.fig11_churn import (
    NUM_REQUESTS as CHURN_REQUESTS,
    SLO_S as CHURN_SLO_S,
    run_fig11,
    summarize_fig11,
)
from repro.experiments.fig12_specialize import (
    EPOCH_LENGTHS,
    NUM_REQUESTS as FIG12_REQUESTS,
    SLO_S as FIG12_SLO_S,
    run_fig12,
)
from repro.experiments.fig13_control import (
    CONTROLLER,
    SLO_S as FIG13_SLO_S,
    STATIC_INFLIGHTS,
    STREAMS as FIG13_STREAMS,
    run_fig13_churn,
    run_fig13_streams,
    summarize_fig13,
)
from repro.platform.cluster import build_cluster
from repro.serving import (
    LEADERS_DISTRIBUTED,
    LEADERS_SHARED,
    OnlineScheduler,
    ShardedScheduler,
)

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
BACKLOG_SIZE = 16
REPEATS = 5
#: Leader-dispatcher counts swept by the sharding section.
SHARD_SWEEP = (1, 2, 4)
#: In-flight window for the sharding sweep: wide enough that the
#: dispatcher control loop -- not the slot pool -- is the varied
#: bottleneck.
SHARD_INFLIGHT = 8
#: Shard count of the leader-placement comparison.
LEADER_SHARDS = 4


def _backlog_graphs():
    return [build_model(MODEL_NAMES[i % len(MODEL_NAMES)]) for i in range(BACKLOG_SIZE)]


def forget_plans():
    """Empty the process-lifetime plan, local-decision and local
    partitioner memos; the pipeline-geometry and partition memos stay
    warm."""
    for memo in (hidp._PLANS, hidp._LOCAL_DECISIONS, hidp._LOCAL_PARTITIONERS):
        memo.clear()


def _time_sequential(graphs, cluster, repeats=REPEATS):
    """Naive per-request planning: one fresh planner pass per request.
    The plan and local-tier memos are emptied before each request, so a
    repeated model is searched again, on warm pipeline-geometry and
    partition memos."""
    times = []
    for _ in range(repeats):
        clear_result_memos()
        start = time.perf_counter()
        plans = []
        for graph in graphs:
            forget_plans()
            plans.append(HiDPStrategy().plan(graph, cluster))
        times.append(time.perf_counter() - start)
    return times, plans


def _time_batched(graphs, cluster, repeats=REPEATS):
    """One co-planning pass over the whole backlog."""
    times = []
    for _ in range(repeats):
        clear_result_memos()
        start = time.perf_counter()
        plans = HiDPStrategy().plan_batch(graphs, cluster)
        times.append(time.perf_counter() - start)
    return times, plans


def test_bench_serving_coplan_and_sustained_load(cluster):
    graphs = _backlog_graphs()
    for graph in graphs:
        graph.segments()  # segment extraction is cached on the graph

    sequential, plans_seq = _time_sequential(graphs, cluster)
    batched, plans_batch = _time_batched(graphs, cluster)
    assert plans_seq == plans_batch, "co-planned backlog diverged from sequential plans"

    seq_min, batch_min = min(sequential), min(batched)
    coplan = {
        "backlog": BACKLOG_SIZE,
        "models": list(MODEL_NAMES),
        "sequential_min_s": seq_min,
        "sequential_mean_s": sum(sequential) / len(sequential),
        "batched_min_s": batch_min,
        "batched_mean_s": sum(batched) / len(batched),
        "speedup_min": seq_min / batch_min,
    }
    print(
        f"co-plan {BACKLOG_SIZE}-request backlog: sequential {seq_min * 1e3:.2f} ms, "
        f"batched {batch_min * 1e3:.2f} ms ({coplan['speedup_min']:.1f}x)"
    )

    scheduler = OnlineScheduler(cluster=build_cluster())
    result = scheduler.run(build_arrivals("poisson"))
    assert result.count == 120
    result.busy.assert_no_overlaps()
    percentiles = result.percentiles()
    serving = {
        "arrivals": "poisson",
        "requests": result.count,
        "makespan_s": result.makespan_s,
        "throughput_rps": result.throughput_rps(),
        "latency_percentiles_s": percentiles,
        "slo_s": SLO_S,
        "slo_attainment": result.slo_attainment(SLO_S),
        "batches": result.batches,
        "mean_batch_size": result.mean_batch_size,
        "replans": result.replans,
        "energy_j": result.energy_j,
    }
    print(
        f"serving poisson x{result.count}: "
        f"p50 {percentiles['p50'] * 1e3:.0f} ms, p95 {percentiles['p95'] * 1e3:.0f} ms, "
        f"p99 {percentiles['p99'] * 1e3:.0f} ms, "
        f"SLO<{SLO_S:g}s {100 * serving['slo_attainment']:.0f}%, "
        f"{result.replans} replans over {result.batches} batches"
    )

    # Sharding sweep: the seeded bursty stream through 1/2/4 leader
    # dispatchers with measured-bucket planning overhead charged.
    bursty = build_arrivals("bursty")
    sharded = {}
    for leaders in SHARD_SWEEP:
        result = ShardedScheduler(
            cluster=build_cluster(), num_shards=leaders, max_inflight=SHARD_INFLIGHT
        ).run(bursty)
        assert result.count == len(bursty)
        result.busy.assert_no_overlaps()
        pct = result.percentiles()
        sharded[str(leaders)] = {
            "leaders": leaders,
            "latency_percentiles_s": pct,
            "throughput_rps": result.throughput_rps(),
            "steady_state_rps": result.steady_state_rps(),
            "slo_attainment": result.slo_attainment(SLO_S),
            "batches": result.batches,
            "replans": result.replans,
            "steals": result.steals,
            "planning_charged_s": result.planning_charged_s,
        }
        print(
            f"sharded bursty x{result.count} @ {leaders} leader(s): "
            f"p50 {pct['p50'] * 1e3:.0f} ms, p99 {pct['p99'] * 1e3:.0f} ms, "
            f"{result.replans} replans, {result.planning_charged_s * 1e3:.0f} ms planning charged"
        )

    # Leader-placement sweep (ISSUE 5): the light-model burst stream at
    # 4 shards, shared devices[0] leader vs per-shard physical leaders.
    light = build_fig10_arrivals("bursty_light", "uniform")
    leader_sweep = {}
    for policy in (LEADERS_SHARED, LEADERS_DISTRIBUTED):
        result = ShardedScheduler(
            cluster=build_cluster(),
            num_shards=LEADER_SHARDS,
            max_inflight=SHARD_INFLIGHT,
            leader_policy=policy,
        ).run(light)
        assert result.count == len(light)
        result.busy.assert_no_overlaps()
        pct = result.percentiles()
        leader_sweep[policy] = {
            "leaders": LEADER_SHARDS,
            "leader_devices": list(result.leader_devices),
            "latency_percentiles_s": pct,
            "throughput_rps": result.throughput_rps(),
            "steady_state_rps": result.steady_state_rps(),
            "planning_charged_s": result.planning_charged_s,
        }
        print(
            f"leader placement {policy} @ {LEADER_SHARDS} shards (light bursty "
            f"x{result.count}): p50 {pct['p50'] * 1e3:.0f} ms, "
            f"p99 {pct['p99'] * 1e3:.0f} ms, leaders {result.leader_devices}"
        )

    # Churn sweep (ISSUE 6): the Fig. 11 fault-injection grid, with the
    # exactly-once invariant asserted on every cell.
    churn_results = run_fig11()
    for key, result in churn_results.items():
        assert result.count + result.shed == CHURN_REQUESTS, (
            f"exactly-once violated in churn cell {key}: "
            f"{result.count} completed + {result.shed} shed != {CHURN_REQUESTS}"
        )
        assert result.failures == result.retries + result.shed, (
            f"failure accounting does not reconcile in churn cell {key}"
        )
        result.busy.assert_no_overlaps()
    churn = {
        "requests": CHURN_REQUESTS,
        "slo_s": CHURN_SLO_S,
        "cells": summarize_fig11(churn_results),
    }
    for name in ("moderate/none/HiDP", "moderate/retry/HiDP"):
        cell = churn["cells"][name]
        print(
            f"churn {name}: SLO<{CHURN_SLO_S:g}s {100 * cell['slo_attainment']:.1f}%, "
            f"{cell['failures']} failures, {cell['retries']} retries, "
            f"{cell['shed']} shed, {cell['recovered']} recovered"
        )

    # Specialization sweep (ISSUE 7): the skewed fig12 stream through
    # hash / affinity / clustered routing.
    fig12_results = run_fig12(skews=("skewed",))
    fig12_cells = {}
    for (skew, router_name, epoch_s), result in fig12_results.items():
        assert result.count == len(result.served)
        result.busy.assert_no_overlaps()
        pct = result.percentiles()
        label = router_name if epoch_s == 0 else f"{router_name}/{epoch_s:g}"
        fig12_cells[label] = {
            "skew": skew,
            "router": result.router,
            "epoch_s": epoch_s,
            "latency_percentiles_s": pct,
            "slo_attainment": result.slo_attainment(FIG12_SLO_S),
            "throughput_rps": result.throughput_rps(),
            "epochs": result.epochs,
            "leader_reelections": result.leader_reelections,
            "spilled": result.spilled,
            "cold_routed": result.cold_routed,
            "planning_charged_s": result.planning_charged_s,
        }
        print(
            f"fig12 {label} (skewed x{result.count}): "
            f"p50 {pct['p50'] * 1e3:.0f} ms, p99 {pct['p99'] * 1e3:.0f} ms, "
            f"SLO<{FIG12_SLO_S:g}s {100 * fig12_cells[label]['slo_attainment']:.1f}%, "
            f"{result.epochs} epochs, {result.leader_reelections} re-elections"
        )
    fig12 = {"requests": FIG12_REQUESTS, "slo_s": FIG12_SLO_S, "cells": fig12_cells}

    # Control-plane sweep (ISSUE 9): static in-flight windows vs the
    # stream-blind AIMD controller on the two adversarial fig10
    # streams, and breaker-enabled control under the fig11 churn
    # timelines.  The new `rejected` bucket must reconcile everywhere.
    fig13_stream_results = run_fig13_streams()
    fig13_churn_results = run_fig13_churn()
    for key, result in {**fig13_stream_results, **fig13_churn_results}.items():
        assert result.count + result.shed + result.rejected == 120, (
            f"admission ledger does not reconcile in fig13 cell {key}"
        )
        assert result.failures == result.retries + result.shed, (
            f"failure accounting does not reconcile in fig13 cell {key}"
        )
        result.busy.assert_no_overlaps()
    fig13_cells = summarize_fig13(fig13_stream_results, fig13_churn_results)
    fig13 = {"slo_s": FIG13_SLO_S, "cells": fig13_cells}
    for stream in FIG13_STREAMS:
        cell = fig13_cells[f"{stream}/{CONTROLLER}"]
        print(
            f"fig13 {stream}/controller: p99 {cell['p99_ms']:.0f} ms, "
            f"SLO<{FIG13_SLO_S:g}s {100 * cell['slo_attainment']:.1f}%, "
            f"{cell['widened']} widens, {cell['narrowed']} narrows"
        )
    for level in ("moderate", "hostile"):
        cell = fig13_cells[f"churn/{level}/breaker"]
        print(
            f"fig13 churn/{level}/breaker: SLO {100 * cell['slo_attainment']:.1f}%, "
            f"{cell['breaker_trips']} trips, {cell['breaker_restores']} restores"
        )

    artifact = {
        "bench": "serving",
        "description": (
            "Batched backlog co-planning vs naive per-request planning, "
            "sustained-load serving quality of the online scheduler on the "
            "seeded Fig. 9 Poisson stream, the sharded-scheduler "
            "leader-count sweep on the seeded bursty stream, the "
            "shared-vs-distributed physical-leader comparison on the seeded "
            "light-model burst stream, the Fig. 11 churn sweep (fault "
            "level x recovery policy x strategy, shed counts as SLO miss), "
            "and the Fig. 12 specialization sweep (clustered routing + epoch "
            "leader re-election vs legacy hash/affinity on the skewed "
            "light-model stream)."
        ),
        "gate": {
            "min_speedup": 1.0,
            "sharded_p99_max_ratio": 1.0,
            "distributed_leader_p99_max_ratio": 1.0,
            "churn_recovery_strictly_beats_none": True,
            "clustered_beats_legacy_routers": True,
            "controller_vs_best_static_max_ratio": 1.1,
            "controller_beats_worst_static_p99": True,
            "breaker_control_slo_min_ratio": 1.0,
        },
        "coplan": coplan,
        "serving": serving,
        "sharded": sharded,
        "leader_placement": leader_sweep,
        "churn": churn,
        "fig12_specialize": fig12,
        "fig13_control": fig13,
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")

    # The gate: co-planning a backlog must beat planning it sequentially.
    assert batch_min < seq_min, (
        f"batched co-planning regressed: {batch_min * 1e3:.2f} ms for a "
        f"{BACKLOG_SIZE}-request backlog vs {seq_min * 1e3:.2f} ms sequential"
    )

    # The sharding gate: two leader dispatchers must not cost tail
    # latency against one on the bursty stream.
    single_p99 = sharded["1"]["latency_percentiles_s"]["p99"]
    dual_p99 = sharded["2"]["latency_percentiles_s"]["p99"]
    assert dual_p99 <= single_p99 + 1e-9, (
        f"sharding regressed the tail: 2-leader p99 {dual_p99 * 1e3:.1f} ms vs "
        f"single-leader {single_p99 * 1e3:.1f} ms on the bursty stream"
    )

    # The leader-placement gate: per-shard physical leaders must beat
    # the shared devices[0] leader on the leader-local light stream.
    shared_p99 = leader_sweep[LEADERS_SHARED]["latency_percentiles_s"]["p99"]
    distributed_p99 = leader_sweep[LEADERS_DISTRIBUTED]["latency_percentiles_s"]["p99"]
    assert distributed_p99 < shared_p99, (
        f"distributed leaders regressed the light-stream tail: "
        f"{distributed_p99 * 1e3:.1f} ms vs shared {shared_p99 * 1e3:.1f} ms"
    )

    # The churn-recovery gate: under moderate churn, replan-and-retry
    # must strictly beat recovery-disabled on SLO attainment (shed
    # counts as a miss, so "just drop the failed work" cannot win), and
    # the seeded timeline must actually fail something.
    no_recovery = churn["cells"]["moderate/none/HiDP"]
    with_recovery = churn["cells"]["moderate/retry/HiDP"]
    assert no_recovery["failures"] > 0, (
        "moderate churn produced no failures; the recovery gate is vacuous"
    )
    assert with_recovery["slo_attainment"] > no_recovery["slo_attainment"], (
        f"recovery did not beat shedding under moderate churn: retry "
        f"{with_recovery['slo_attainment']:.4f} vs none "
        f"{no_recovery['slo_attainment']:.4f} SLO attainment"
    )

    # The specialization gate (ISSUE 7): on the skewed stream, the
    # clustered stack must beat BOTH legacy routers on p99 latency AND
    # SLO attainment, at every swept epoch length, and the epoch
    # machinery must have actually run.
    for legacy in ("hash", "affinity"):
        legacy_p99 = fig12_cells[legacy]["latency_percentiles_s"]["p99"]
        legacy_slo = fig12_cells[legacy]["slo_attainment"]
        for epoch_s in EPOCH_LENGTHS:
            cell = fig12_cells[f"clustered/{epoch_s:g}"]
            clustered_p99 = cell["latency_percentiles_s"]["p99"]
            clustered_slo = cell["slo_attainment"]
            assert clustered_p99 < legacy_p99, (
                f"clustered routing (epoch {epoch_s:g}s) lost the skewed-stream "
                f"tail to {legacy}: p99 {clustered_p99 * 1e3:.1f} ms vs "
                f"{legacy_p99 * 1e3:.1f} ms"
            )
            assert clustered_slo > legacy_slo, (
                f"clustered routing (epoch {epoch_s:g}s) lost SLO attainment to "
                f"{legacy}: {clustered_slo:.4f} vs {legacy_slo:.4f}"
            )
    for epoch_s in EPOCH_LENGTHS:
        cell = fig12_cells[f"clustered/{epoch_s:g}"]
        assert cell["epochs"] > 0 and cell["leader_reelections"] > 0, (
            f"epoch machinery never ran at epoch {epoch_s:g}s: "
            f"{cell['epochs']} epochs, {cell['leader_reelections']} re-elections"
        )

    # The control-plane gate (ISSUE 9): the stream-blind controller
    # must land within 10% of the best static window's p99 and SLO
    # attainment on BOTH adversarial streams, and strictly beat the
    # worst static p99 on both -- a controller exists so nobody ships
    # the wrong static config.
    for stream in FIG13_STREAMS:
        statics = [fig13_cells[f"{stream}/static/{w}"] for w in STATIC_INFLIGHTS]
        controller = fig13_cells[f"{stream}/{CONTROLLER}"]
        best_p99 = min(cell["p99_ms"] for cell in statics)
        worst_p99 = max(cell["p99_ms"] for cell in statics)
        best_slo = max(cell["slo_attainment"] for cell in statics)
        assert controller["p99_ms"] <= 1.1 * best_p99, (
            f"controller missed the static p99 frontier on {stream}: "
            f"{controller['p99_ms']:.0f} ms vs best static {best_p99:.0f} ms"
        )
        assert controller["slo_attainment"] >= 0.9 * best_slo, (
            f"controller missed static SLO attainment on {stream}: "
            f"{controller['slo_attainment']:.4f} vs best static {best_slo:.4f}"
        )
        assert controller["p99_ms"] < worst_p99, (
            f"controller did not beat the worst static window on {stream}: "
            f"{controller['p99_ms']:.0f} ms vs worst static {worst_p99:.0f} ms"
        )

    # Breaker-enabled control must never lose SLO attainment to
    # no-control under churn, and the hostile timeline must actually
    # trip a breaker so the FSM is exercised, not vacuously green.
    for level in ("moderate", "hostile"):
        without = fig13_cells[f"churn/{level}/none"]
        with_breakers = fig13_cells[f"churn/{level}/breaker"]
        assert with_breakers["slo_attainment"] >= without["slo_attainment"], (
            f"breaker control lost SLO attainment under {level} churn: "
            f"{with_breakers['slo_attainment']:.4f} vs {without['slo_attainment']:.4f}"
        )
    hostile = fig13_cells["churn/hostile/breaker"]
    assert hostile["breaker_trips"] > 0, (
        "hostile churn never tripped a breaker; the breaker gate is vacuous"
    )
