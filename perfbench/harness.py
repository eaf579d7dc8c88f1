"""Measurement loop, correctness checks and metric reduction.

One invocation serves one workload.  It sets the workload up several
times, then serves the whole pool of episodes -- one *pass* -- and more
passes while the requested wall-clock budget allows, serves the first
tenth of the pool once more, and sets the workload up several times
again; ``setup_s`` is the median of all set-ups.  The simulated metrics
come from the first pass, which always serves the whole pool.

Each episode's ``ShardedScheduler.run`` is timed on its own and the
episodes are grouped into chunks of about :data:`CHUNK_REQUESTS`
requests, so a run holds a score or more of wall-clock samples even
when one pass fills its budget.  ``requests_per_s`` is the upper decile
of the chunk rates: on a shared host, other tenants slow the process by
up to a factor of two for seconds at a time, which drags the median
chunk with them, while the fast chunks estimate the program's own speed
(the same reasoning as a best-of-N timing).  A change that slows the
program slows every chunk, the fast ones included.

Every episode is checked against the serving ledgers as it completes,
and every episode served more than once must reproduce the same result
fingerprint each time.  The untraced invocation reports the end-to-end
metrics; the traced one serves a prefix of the pool untraced and then
under the profiler, and reports the per-layer metrics together with the
tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.serving import percentile, result_fingerprint

from perfbench.tracer import LayerTracer
from perfbench.workloads import Workload

#: Set-up passes per invocation (``setup_s`` reports their median): at
#: least ``SETUP_MIN``, and more, up to ``SETUP_MAX``, while their total
#: stays under ``SETUP_MIN_S`` seconds, so a cheap set-up is timed often
#: enough for a steady median.
SETUP_MIN = 3
SETUP_MAX = 50
SETUP_MIN_S = 1.0
#: Fewest traced passes (and untraced passes of a traced run): two,
#: so the exact counters of two traced passes can be compared.
MIN_TRACED_PASSES = 2
#: The closing check pass re-serves this share of the pool's episodes.
CHECK_SHARE = 10
#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Requests per wall-clock chunk: long enough (a tenth of a second or
#: more) that timer resolution and a stray collection do not matter,
#: short enough that one pass of every pool holds a score of chunks.
CHUNK_REQUESTS = 400

#: ``ServingResult`` counters a pass sums over its episodes.
SUMMED = (
    "count",
    "shed",
    "rejected",
    "failures",
    "retries",
    "energy_j",
    "span_s",
    "sim_events",
    "network_bytes",
    "batches",
    "replans",
    "steals",
    "preemptions",
    "planning_charged_s",
    "spilled",
    "cold_routed",
    "epochs",
    "leader_reelections",
    "fault_events",
)

#: Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "plan.requested": "requests_per_s on churn_cold (not on heavy_warm)",
    "plan.computed": "requests_per_s on churn_cold (not on heavy_warm); setup_s on heavy_warm",
    "plan.cache_hit_ratio": "requests_per_s on churn_cold (not on heavy_warm)",
    "plan.wall_share": "requests_per_s on churn_cold (not on heavy_warm)",
    "plan.charged_sim_s": "sim_latency_p99_ms on light_clustered",
    "dp.kernel_calls": "requests_per_s on churn_cold",
    "dp.wall_share": "requests_per_s on churn_cold",
    "engine.events_per_request": "requests_per_s on heavy_warm",
    "engine.processes_per_request": "requests_per_s on heavy_warm",
    "engine.self_share": "requests_per_s on heavy_warm",
    "executor.executions": "requests_per_s on heavy_warm",
    "executor.wall_share": "requests_per_s on heavy_warm",
    "resources.grants_per_request": "requests_per_s on heavy_warm",
    "runtime.load_snapshots": "requests_per_s on light_clustered",
    "runtime.wall_share": "requests_per_s on light_clustered",
    "trace.records_per_request": "requests_per_s on heavy_warm",
    "trace.wall_share": "requests_per_s on heavy_warm",
    "comm.bytes_per_request": "sim_latency_p50_ms and sim_energy_j_per_request on heavy_warm",
    "dispatch.batches": "sim_latency_p99_ms and requests_per_s on light_clustered",
    "dispatch.mean_batch": "sim_latency_p99_ms and requests_per_s on light_clustered",
    "dispatch.replans": "sim_latency_p99_ms and requests_per_s on light_clustered",
    "dispatch.steals": "sim_latency_p99_ms and requests_per_s on light_clustered",
    "dispatch.preemptions": "sim_latency_p99_ms and requests_per_s on light_clustered",
    "dispatch.sim_queue_p99_ms": "sim_latency_p99_ms and requests_per_s on light_clustered",
    "routing.route_calls": "slo_attainment and requests_per_s on light_clustered",
    "routing.wall_share": "slo_attainment and requests_per_s on light_clustered",
    "routing.spilled": "slo_attainment and requests_per_s on light_clustered",
    "routing.cold_routed": "slo_attainment and requests_per_s on light_clustered",
    "routing.epochs": "slo_attainment and requests_per_s on light_clustered",
    "routing.leader_reelections": "slo_attainment and requests_per_s on light_clustered",
    "specialize.wall_share": "slo_attainment and requests_per_s on light_clustered",
    "control.wakes": "slo_attainment on light_clustered; served_fraction on churn_cold",
    "control.actuations": "slo_attainment on light_clustered; served_fraction on churn_cold",
    "control.rejected": "slo_attainment on light_clustered; served_fraction on churn_cold",
    "control.wall_share": "slo_attainment on light_clustered; served_fraction on churn_cold",
    "faults.fault_events": "served_fraction and slo_attainment on churn_cold",
    "faults.failures": "served_fraction and slo_attainment on churn_cold",
    "faults.retries": "served_fraction and slo_attainment on churn_cold",
    "faults.shed": "served_fraction and slo_attainment on churn_cold",
    "faults.recovered_ratio": "served_fraction and slo_attainment on churn_cold",
    "faults.failed_fraction": "served_fraction and slo_attainment on churn_cold",
    "serving.self_share": "requests_per_s on light_clustered",
    "harness.trace_overhead": "none: the cost of tracing itself",
}


class CheckFailed(Exception):
    """A run's outputs broke a serving ledger or a repeatability check."""


@dataclass
class Pass:
    """Totals of one pass over a workload's episodes."""

    sent: int = 0
    #: Wall-clock of each episode's ``ShardedScheduler.run`` and the
    #: requests it served, in pool order.
    episode_s: List[float] = field(default_factory=list)
    episode_served: List[int] = field(default_factory=list)
    #: ``result_fingerprint`` of each episode served, in pool order.
    fingerprints: List[str] = field(default_factory=list)
    totals: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(SUMMED, 0))
    #: Per-request samples; the harness keeps them for the first pass of
    #: a kind only, so memory does not grow with the number of passes.
    latencies: List[float] = field(default_factory=list)
    queue_delays: List[float] = field(default_factory=list)
    actuations: int = 0
    #: Traced passes only: the tracer and the exact per-layer counters.
    tracer: Optional[LayerTracer] = None
    counts: Optional[Dict[str, float]] = None

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256("".join(self.fingerprints).encode()).hexdigest()

    @property
    def served(self) -> int:
        return self.totals["count"]

    @property
    def failed(self) -> int:
        return self.sent - self.served

    @property
    def wall_s(self) -> float:
        return sum(self.episode_s)

    @property
    def requests_per_s(self) -> float:
        return self.served / self.wall_s

    def add(self, result) -> None:
        for name in SUMMED:
            self.totals[name] += getattr(result, name)
        self.latencies.extend(result.latencies)
        self.queue_delays.extend(result.queue_delays)
        if result.control is not None:
            self.actuations += result.control.actuations

    def drop_samples(self) -> None:
        self.latencies = []
        self.queue_delays = []


def host_metadata() -> Dict[str, object]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


# -- correctness -----------------------------------------------------------


def ledger_problems(result, requests: Sequence) -> List[str]:
    """Every broken serving ledger identity of one episode's result."""
    problems = []
    offered = len(requests)
    settled = result.count + result.shed + result.rejected
    if settled != offered:
        problems.append(
            f"count {result.count} + shed {result.shed} + rejected "
            f"{result.rejected} = {settled} != {offered} requests"
        )
    served_ids = [record.request.request_id for record in result.served]
    if len(set(served_ids)) != len(served_ids):
        problems.append("a request was served more than once")
    if not set(served_ids) <= {request.request_id for request in requests}:
        problems.append("a served request is not in the stream")
    if result.failures != result.retries + result.shed:
        problems.append(
            f"failures {result.failures} != retries {result.retries} + shed {result.shed}"
        )
    for shard, dispatched in enumerate(result.dispatched_by_shard):
        expected = (
            result.admitted_by_shard[shard]
            + result.readmitted_by_shard[shard]
            + result.stolen_in_by_shard[shard]
            - result.stolen_out_by_shard[shard]
        )
        if dispatched != expected:
            problems.append(
                f"shard {shard}: dispatched {dispatched} != admitted + readmitted "
                f"+ stolen_in - stolen_out = {expected}"
            )
    return problems


def check_fingerprints(passes: Sequence[Pass]) -> str:
    """Every episode's fingerprint must be the same in every pass that
    served it; returns the digest of the pass that served the most."""
    longest = max(passes, key=lambda one: len(one.fingerprints))
    for one in passes:
        for index, (mine, reference) in enumerate(zip(one.fingerprints, longest.fingerprints)):
            if mine != reference:
                raise CheckFailed(
                    f"episode {index}: result fingerprints differ across passes "
                    f"({mine[:16]} != {reference[:16]})"
                )
    return longest.fingerprint


# -- measurement -------------------------------------------------------------


def serve(
    workload: Workload, tracer: Optional[LayerTracer] = None, episodes: Optional[int] = None
) -> Pass:
    """Serve every episode (or the first ``episodes``) once, timing only
    ``ShardedScheduler.run``.

    Each episode's result is checked, fingerprinted and summed as soon
    as it completes, then dropped.
    """
    one = Pass()
    for index, (scheduler, stream) in enumerate(islice(workload.schedulers(), episodes)):
        with tracer if tracer is not None else nullcontext():
            start = perf_counter()
            result = scheduler.run(stream)
            elapsed = perf_counter() - start
        problems = ledger_problems(result, stream)
        if problems:
            raise CheckFailed(f"episode {index}: " + "; ".join(problems))
        one.sent += len(stream)
        one.episode_s.append(elapsed)
        one.episode_served.append(result.count)
        one.fingerprints.append(result_fingerprint(result))
        one.add(result)
    return one


def timed_setups(workload: Workload) -> Tuple[List[float], Optional[Pass]]:
    """Set the workload up several times; returns the set-up times and,
    for a warm workload, the last warming pass (it must reproduce the
    measured passes' fingerprint)."""
    times: List[float] = []
    warm = None
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_MIN_S):
        gc.collect()
        start = perf_counter()
        workload.setup()
        if workload.spec.warm:
            warm = serve(workload)
        times.append(perf_counter() - start)
    return times, warm


def repeat(
    workload: Workload, seconds: float, minimum: int, log, label: str, traced: bool = False
) -> List[Pass]:
    """Serve at least ``minimum`` passes, and more while another one of
    average length still fits in ``seconds`` of wall-clock."""
    passes: List[Pass] = []
    start = perf_counter()
    while len(passes) < minimum or (
        (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
    ):
        gc.collect()
        tracer = LayerTracer() if traced else None
        one = serve(workload, tracer)
        if tracer is not None:
            tracer.summarise()
            one.tracer = tracer
            one.counts = layer_counts(one, tracer)
        if passes:
            one.drop_samples()
        passes.append(one)
        log(
            f"{label} {len(passes)}: sent {one.sent} served {one.served} failed "
            f"{one.failed} run {one.wall_s:.3f} s -> {one.requests_per_s:.1f} req/s "
            f"fingerprint {one.fingerprint[:16]}"
        )
    return passes


def chunk_rates(passes: Sequence[Pass], requests_per_episode: int) -> List[float]:
    """Requests served per wall-clock second of each chunk of consecutive
    episodes (about :data:`CHUNK_REQUESTS` requests) of every pass; a
    pass of fewer episodes than a chunk counts as one chunk."""
    size = max(1, round(CHUNK_REQUESTS / requests_per_episode))
    rates = []
    for one in passes:
        step = min(size, len(one.episode_s))
        for start in range(0, len(one.episode_s) - step + 1, step):
            chunk = slice(start, start + step)
            rates.append(sum(one.episode_served[chunk]) / sum(one.episode_s[chunk]))
    return rates


def upper_decile(rates: Sequence[float]) -> float:
    """The rate nine chunks in ten stay below (the only one, for one)."""
    return statistics.quantiles(rates, n=10)[-1] if len(rates) > 1 else rates[0]


# -- metrics -----------------------------------------------------------------


def tail(values: Sequence[float], pct: float = 99.0) -> Tuple[float, float, int]:
    """``(percentile used, value, samples beyond it)``: ``pct`` if at
    least :data:`TAIL_SAMPLES` samples lie beyond it, else the highest
    percentile (in 0.1 steps, down to the median) that has them."""
    ordered = sorted(values)
    step = round(pct * 10)
    while True:
        used = step / 10.0
        value = percentile(ordered, used)
        beyond = len(ordered) - bisect_right(ordered, value)
        if beyond >= TAIL_SAMPLES or used <= 50.0:
            return used, value, beyond
        step -= 1


def end_to_end(
    workload: Workload, passes: Sequence[Pass], setup_times: Sequence[float], log
) -> Dict[str, float]:
    first = passes[0]
    totals = first.totals
    latencies = first.latencies
    slo_s = workload.spec.slo_s
    met = sum(1 for latency in latencies if latency <= slo_s)
    tail_pct, p99, beyond = tail(latencies)
    rates = chunk_rates(passes, workload.requests_per_episode)
    log(
        f"latency sample: {len(latencies)} served requests; "
        f"sim_latency_p99_ms reports p{tail_pct:g} ({beyond} samples beyond it)"
    )
    log(
        f"requests_per_s: upper decile of {len(rates)} chunk rates over {len(passes)} "
        f"passes (median {statistics.median(rates):.1f})"
    )
    return {
        "requests_per_s": upper_decile(rates),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "sim_latency_p50_ms": percentile(latencies, 50.0) * 1000.0,
        "sim_latency_p99_ms": p99 * 1000.0,
        "slo_attainment": met / first.sent,
        "sim_energy_j_per_request": totals["energy_j"] / first.served,
        "sim_throughput_rps": first.served / totals["span_s"],
        "served_fraction": first.served / first.sent,
    }


def layer_counts(one: Pass, tracer: LayerTracer) -> Dict[str, float]:
    """The exact per-layer counters of one traced pass."""
    totals = one.totals
    offered = one.sent
    failures = totals["failures"]
    requested = tracer.plans_requested
    computed = tracer.count("core/strategy.py", "_cache_put")
    return {
        "plan.requested": requested,
        "plan.computed": computed,
        "plan.cache_hit_ratio": 1.0 - computed / requested if requested else 1.0,
        "plan.charged_sim_s": totals["planning_charged_s"],
        "dp.kernel_calls": tracer.dp_kernel_calls,
        "engine.events_per_request": totals["sim_events"] / offered,
        "engine.processes_per_request": tracer.count("sim/engine.py", "process") / offered,
        "executor.executions": tracer.executions,
        "resources.grants_per_request": tracer.count("sim/resources.py", "request") / offered,
        "runtime.load_snapshots": tracer.count("sim/runtime.py", "load_snapshot"),
        "trace.records_per_request": tracer.count("sim/trace.py", "record") / offered,
        "comm.bytes_per_request": totals["network_bytes"] / offered,
        "dispatch.batches": totals["batches"],
        "dispatch.mean_batch": one.served / max(1, totals["batches"]),
        "dispatch.replans": totals["replans"],
        "dispatch.steals": totals["steals"],
        "dispatch.preemptions": totals["preemptions"],
        "dispatch.sim_queue_p99_ms": tail(one.queue_delays)[1] * 1000.0,
        "routing.route_calls": tracer.count("serving/routing.py", "route"),
        "routing.spilled": totals["spilled"],
        "routing.cold_routed": totals["cold_routed"],
        "routing.epochs": totals["epochs"],
        "routing.leader_reelections": totals["leader_reelections"],
        "control.wakes": tracer.count("serving/control.py", "wake"),
        "control.actuations": one.actuations,
        "control.rejected": totals["rejected"],
        "faults.fault_events": totals["fault_events"],
        "faults.failures": failures,
        "faults.retries": totals["retries"],
        "faults.shed": totals["shed"],
        "faults.recovered_ratio": (failures - totals["shed"]) / failures if failures else 1.0,
        "faults.failed_fraction": one.failed / offered,
    }


#: Per-layer wall-clock share metric -> tracer layer.
SHARES = {
    "serving.self_share": "serving",
    "plan.wall_share": "plan",
    "dp.wall_share": "dp",
    "engine.self_share": "engine",
    "executor.wall_share": "executor",
    "runtime.wall_share": "runtime",
    "trace.wall_share": "trace",
    "routing.wall_share": "routing",
    "specialize.wall_share": "specialize",
    "control.wall_share": "control",
}


def per_layer(
    workload: Workload, untraced: Sequence[Pass], traced: Sequence[Pass], log
) -> Dict[str, float]:
    """Exact counters (checked equal across traced passes), layer
    wall-clock shares over every traced pass, and the tracing overhead
    against the untraced passes of the same invocation."""
    first = traced[0].counts
    for one in traced[1:]:
        drift = {
            name: (first[name], value)
            for name, value in one.counts.items()
            if value != first[name]
        }
        if drift:
            raise CheckFailed(f"exact per-layer counters differ across traced passes: {drift}")
    profiled_s = sum(one.tracer.total_s for one in traced)
    shares = {
        name: sum(one.tracer.self_s[layer] for one in traced) / profiled_s
        for name, layer in SHARES.items()
    }
    untraced_rps = upper_decile(chunk_rates(untraced, workload.requests_per_episode))
    traced_rps = upper_decile(chunk_rates(traced, workload.requests_per_episode))
    log(
        f"tracing: untraced {untraced_rps:.1f} req/s, traced {traced_rps:.1f} req/s; "
        f"layer shares cover {sum(shares.values()):.4f} of profiled wall-clock"
    )
    metrics = dict(first)
    metrics.update(shares)
    metrics["harness.trace_overhead"] = untraced_rps / traced_rps
    return metrics


# -- one invocation ----------------------------------------------------------


def run(workload: Workload, seconds: float, traced: bool, units, log) -> dict:
    """Set up, measure and check one workload; returns the result object.

    ``units`` maps every metric this kind of run must report to its
    unit (the ``BENCHMARK.json`` declaration).
    """
    spec = workload.spec
    log(" ".join(f"{key}={value}" for key, value in host_metadata().items()))
    log(
        f"workload={spec.name} seed={workload.seed} (default {spec.default_seed}) "
        f"trace={int(traced)} episodes={workload.episodes} x "
        f"{workload.requests_per_episode} requests"
    )
    attempted = failed = 0
    try:
        setup_times, warm = timed_setups(workload)
        log("setup: " + ", ".join(f"{t:.3f} s" for t in setup_times))
        checked = [] if warm is None else [warm]
        if traced:
            untraced = repeat(workload, seconds / 2.0, MIN_TRACED_PASSES, log, "untraced")
            traced_passes = repeat(
                workload, seconds / 2.0, MIN_TRACED_PASSES, log, "traced", traced=True
            )
            measured = untraced + traced_passes
        else:
            measured = repeat(workload, seconds, 1, log, "pass")
        gc.collect()
        check = serve(workload, episodes=max(1, workload.episodes // CHECK_SHARE))
        log(
            f"check pass: sent {check.sent} served {check.served} failed {check.failed} "
            f"over the first {len(check.fingerprints)} episodes"
        )
        if not traced:
            # Set up again at the end: the host's speed drifts within a
            # run, and set-ups timed only at its start sample one moment.
            late_times, late_warm = timed_setups(workload)
            log("setup again: " + ", ".join(f"{t:.3f} s" for t in late_times))
            setup_times += late_times
            checked += [] if late_warm is None else [late_warm]
        checked += measured + [check]
        attempted = sum(one.sent for one in measured + [check])
        failed = sum(one.failed for one in measured + [check])
        digest = check_fingerprints(checked)
        if traced:
            metrics = per_layer(workload, untraced, traced_passes, log)
        else:
            metrics = end_to_end(workload, measured, setup_times, log)
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        return {"correct": False, "attempted": max(1, attempted), "failed": failed, "metrics": {}}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics computed {sorted(metrics)} do not match those declared {sorted(units)}"
        )
    log(
        f"checks passed: ledgers of every episode of {len(checked)} passes, and "
        f"every repeated episode's result fingerprint; pool fingerprint {digest}"
    )
    log(f"requests: sent {attempted} served {attempted - failed} failed {failed}")
    for metric in units:
        line = f"{metric} = {metrics[metric]!r} {units[metric]}"
        log(line + (f"  (moves {MOVES[metric]})" if traced else ""))
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": units[metric]} for metric in units
        },
    }
