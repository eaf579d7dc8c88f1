"""Bench: serving-scale hot path (ISSUE 4) + the events/sec gate.

One artifact (``BENCH_engine.json``), one seeded workload: a 5000-request
Poisson stream (4 rps, round-robin over the four evaluation models)
through the sharded scheduler at 4 leader dispatchers.  Planning-overhead
charging is off for this stream so the event schedule is independent of
plan-cache state -- which makes warm (steady-state) timing runs
schedule-identical to cold ones, pinned below via ``sim_events``.

Two sections, same old-vs-new methodology as ``BENCH_dse.json``:

1. **Pinned-schedule equivalence.**  The stream runs once per
   configuration -- reference paths (``REPRO_SIM_FASTPATH=0`` +
   ``REPRO_DSE_FASTPATH=0``: the reference engine drain with every
   memo store off, and the pure-Python DSE, with full traces) and fast
   paths (optimized engine + shared staged search), plus a fast run
   with ``trace_level="aggregate"``.  All three must produce
   byte-identical schedules: same per-request dispatch/completion
   times, same scheduled-event count, same busy intervals (full-trace
   runs compared interval by interval), same energy/FLOPs/byte totals.
   Identical timelines under identical workloads means identical
   *plans* too -- a diverging staged search or DP kernel would shift
   every downstream timestamp.

2. **Events/sec gate.**  Old: the reference configuration, cold caches
   (like the BENCH_dse "old" side; the executor and stations run the
   same hold code in both configurations).  New: all fast
   paths with warm plan-level caches (the steady state a serving
   middleware sees, like the BENCH_dse "new" side) and aggregate
   traces.  The gate asserts the fast path sustains at least
   ``GATE_MIN_SPEEDUP``x the reference events/sec on the same stream,
   and pins the stream's exact event count (``SIM_EVENTS``).

The result memos in ``repro.core.dp`` (and the partition memos behind
them) are cleared before every cold measurement so no configuration is
subsidised by another's warm cache.
"""

import json
import os
import resource
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.dp import clear_result_memos
from repro.core.hidp import HiDPStrategy
from repro.dnn.models import MODEL_NAMES
from repro.metrics.serving import result_fingerprint
from repro.platform.cluster import build_cluster
from repro.serving import ShardedScheduler
from repro.sim.engine import Environment
from repro.sim.trace import TRACE_AGGREGATE, TRACE_FULL
from repro.workloads.arrivals import poisson_stream

ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: The seeded serving stream: 5000 requests at 4 rps.
NUM_REQUESTS = 5000
RATE_RPS = 4.0
STREAM_SEED = 7
#: Scheduler configuration (charging off: see module docstring).
NUM_SHARDS = 4
MAX_INFLIGHT = 8
#: Timing repeats (min-of-N is the noise-robust comparison).
OLD_REPEATS = 2
NEW_REPEATS = 3
GATE_MIN_SPEEDUP = 3.0
#: Exact engine work on the stream (events scheduled over the run),
#: gated with ``==``: machine-independent, so a change in events per
#: request shows as an exact diff.
SIM_EVENTS = 224_737


@contextmanager
def _hatches(sim: str, dse: str):
    """Pin both fast-path hatches, restoring the caller's settings."""
    previous = {
        name: os.environ.get(name)
        for name in ("REPRO_SIM_FASTPATH", "REPRO_DSE_FASTPATH")
    }
    os.environ["REPRO_SIM_FASTPATH"] = sim
    os.environ["REPRO_DSE_FASTPATH"] = dse
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _stream():
    return poisson_stream(
        MODEL_NAMES, rate_rps=RATE_RPS, num_requests=NUM_REQUESTS, seed=STREAM_SEED
    )


def _run(requests, strategy=None, trace_level=TRACE_FULL):
    scheduler = ShardedScheduler(
        cluster=build_cluster(),
        strategy=strategy if strategy is not None else HiDPStrategy(),
        num_shards=NUM_SHARDS,
        max_inflight=MAX_INFLIGHT,
        planning_overhead="off",
        trace_level=trace_level,
    )
    start = time.perf_counter()
    result = scheduler.run(requests)
    return time.perf_counter() - start, result


def _timeline(result):
    return [
        (
            record.request.request_id,
            record.arrival_s,
            record.dispatched_s,
            record.completed_s,
            record.replanned,
        )
        for record in result.served
    ]


def _assert_schedule_identical(reference, candidate, label):
    assert _timeline(reference) == _timeline(candidate), f"{label}: timelines diverge"
    assert reference.sim_events == candidate.sim_events, f"{label}: event counts diverge"
    assert reference.makespan_s == candidate.makespan_s, f"{label}: makespan diverges"
    assert reference.total_flops == candidate.total_flops
    assert reference.network_bytes == candidate.network_bytes
    assert reference.batches == candidate.batches
    assert reference.replans == candidate.replans
    assert reference.steals == candidate.steals


def test_bench_engine_events_per_second_gate():
    requests = _stream()

    # -- Section 1: pinned-schedule equivalence -------------------------
    with _hatches(sim="0", dse="0"):
        clear_result_memos()
        old_times = []
        old_result = None
        for _ in range(OLD_REPEATS):
            clear_result_memos()
            elapsed, old_result = _run(requests)  # fresh strategy: cold
            old_times.append(elapsed)

    with _hatches(sim="1", dse="1"):
        clear_result_memos()
        _, fast_full = _run(requests, trace_level=TRACE_FULL)

        _assert_schedule_identical(old_result, fast_full, "fast-vs-reference")
        # Full traces on both sides: compare busy intervals exactly.
        assert sorted(old_result.busy.keys()) == sorted(fast_full.busy.keys())
        for key in old_result.busy.keys():
            assert old_result.busy.intervals(key) == fast_full.busy.intervals(key), (
                f"busy intervals diverge on {key}"
            )

        # -- Section 2: events/sec, old-vs-new --------------------------
        strategy = HiDPStrategy()
        _run(requests, strategy=strategy, trace_level=TRACE_AGGREGATE)  # warm
        new_times = []
        new_result = None
        for _ in range(NEW_REPEATS):
            elapsed, new_result = _run(
                requests, strategy=strategy, trace_level=TRACE_AGGREGATE
            )
            new_times.append(elapsed)

        _assert_schedule_identical(old_result, new_result, "aggregate-vs-reference")
        # Aggregate totals must match the full-trace run exactly.
        for key in fast_full.busy.keys():
            assert new_result.busy.busy_seconds(key) == fast_full.busy.busy_seconds(key)
        assert new_result.energy_j == fast_full.energy_j == old_result.energy_j

    events = old_result.sim_events
    old_best, new_best = min(old_times), min(new_times)
    old_eps, new_eps = events / old_best, events / new_best
    speedup = new_eps / old_eps

    # The several-minute 100k gate (below) writes its own section into
    # the same artifact; preserve it across re-runs of this bench.
    previous_bigsim = None
    if ARTIFACT_PATH.exists():
        previous_bigsim = json.loads(ARTIFACT_PATH.read_text()).get("bigsim")
    artifact = {
        "bench": "engine_serving_hot_path",
        "description": (
            "5000-request seeded Poisson stream (4 rps, four models) through "
            "the 4-shard scheduler: reference paths cold (REPRO_SIM_FASTPATH=0 "
            "+ REPRO_DSE_FASTPATH=0, full traces -- the reference engine "
            "drain with the memo stores off, and the reference DSE) vs the "
            "optimized engine + shared staged search with warm plan-level "
            "caches and aggregate traces "
            "(steady state).  Schedules are asserted byte-identical across "
            "all configurations before timing."
        ),
        "gate": {"min_speedup": GATE_MIN_SPEEDUP, "sim_events": SIM_EVENTS},
        "stream": {
            "requests": NUM_REQUESTS,
            "rate_rps": RATE_RPS,
            "seed": STREAM_SEED,
            "models": list(MODEL_NAMES),
            "num_shards": NUM_SHARDS,
            "max_inflight": MAX_INFLIGHT,
            "planning_overhead": "off",
        },
        "sim_events": events,
        "makespan_s": old_result.makespan_s,
        "old": {
            "times_s": old_times,
            "best_s": old_best,
            "events_per_sec": old_eps,
        },
        "new": {
            "times_s": new_times,
            "best_s": new_best,
            "events_per_sec": new_eps,
        },
        "speedup": speedup,
    }
    if previous_bigsim is not None:
        artifact["bigsim"] = previous_bigsim
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"engine bench: {events} events, old {old_best:.2f}s "
        f"({old_eps / 1e3:.0f}k ev/s) -> new {new_best:.2f}s "
        f"({new_eps / 1e3:.0f}k ev/s), {speedup:.1f}x"
    )

    assert events == SIM_EVENTS, f"engine work changed: {events} events, pinned {SIM_EVENTS}"
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"engine fast path regressed: {speedup:.2f}x < {GATE_MIN_SPEEDUP}x "
        f"(old {old_best:.2f}s, new {new_best:.2f}s for {events} events)"
    )


# -- The 100k-request gate (ISSUE 10) -----------------------------------------
#
# The million-request day-in-the-life stream, scaled to a gateable
# size: 100k requests at 80 rps through 4 shard dispatchers, charging
# off, aggregate traces.  Marked ``bigsim`` (several minutes of wall
# clock): excluded from tier-1, the quick pulse and the plain
# ``-m bench`` sweep; run explicitly with ``-m bigsim``.

#: The large stream.
BIG_NUM_REQUESTS = 100_000
BIG_RATE_RPS = 80.0
#: Exact engine work on this stream: events scheduled over the run.  A
#: machine-independent counter, gated with ``==`` -- a change that adds
#: (or removes) events per request must re-pin it on purpose.
BIG_SIM_EVENTS = 5_549_760
#: The batch-drain engine must serve the stream at least this many
#: times the requests/s of the reference drain (``REPRO_SIM_FASTPATH=0``,
#: memo stores off) timed min-of-N in the same process: a ratio of two
#: runs on one host, so the gate holds on any machine.
BIG_GATE_MIN_SPEEDUP = 1.15
#: Flat-memory ceiling under ``trace_level="aggregate"``: the 100k run
#: books ~96 MB peak RSS (cluster model + plan caches + O(1) streaming
#: aggregates); a per-event or per-request leak of even 100 bytes would
#: add ~1.5 GB.  The ceiling leaves ~3x headroom for allocator and
#: platform variance without letting a real leak through.
BIG_MAX_RSS_KB = 300_000
BIG_REPEATS = 2


def _big_stream():
    return poisson_stream(
        MODEL_NAMES,
        rate_rps=BIG_RATE_RPS,
        num_requests=BIG_NUM_REQUESTS,
        seed=STREAM_SEED,
    )


def _big_run(requests, trace_level=TRACE_AGGREGATE, checkpoint_at_s=None):
    scheduler = ShardedScheduler(
        cluster=build_cluster(),
        num_shards=NUM_SHARDS,
        max_inflight=MAX_INFLIGHT,
        planning_overhead="off",
        trace_level=trace_level,
    )
    start = time.perf_counter()
    result = scheduler.run(requests, checkpoint_at_s=checkpoint_at_s)
    return time.perf_counter() - start, result


def _assert_counts_exact():
    """``scheduled_events``/``pending_events`` stay exact under
    batch-drain: the counters are recomputed from first principles
    (sequence counter, live heap) at every stage of a drained run."""
    for fast in (True, False):
        env = Environment(fast=fast)
        for index in range(64):
            env.timeout(0.25 * (index % 8))  # heavy same-time batching
        assert env.scheduled_events == 64
        assert env.pending_events == 64
        env.run(until=1.0)
        drained = sum(1 for t in (0.25 * (i % 8) for i in range(64)) if t <= 1.0)
        assert env.pending_events == 64 - drained
        assert env.pending_events == env.snapshot().pending
        assert env.scheduled_events == 64
        env.run()
        assert env.pending_events == 0
        assert env.scheduled_events == 64


@pytest.mark.bigsim
def test_bench_engine_bigsim_100k_gate():
    _assert_counts_exact()
    requests = _big_stream()

    # -- Fast path: timed repeats + flat-memory assertion ---------------
    with _hatches(sim="1", dse="1"):
        fast_times = []
        fast_result = None
        for _ in range(BIG_REPEATS):
            elapsed, fast_result = _big_run(requests)
            fast_times.append(elapsed)
        max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        fast_digest = result_fingerprint(fast_result)

        # -- Checkpoint/resume: pause at half-makespan, byte-identical --
        _, checkpoint = _big_run(
            requests, checkpoint_at_s=fast_result.makespan_s / 2
        )
        assert checkpoint.pending_events > 0
        resumed = checkpoint.resume()
        assert result_fingerprint(resumed) == fast_digest, (
            "checkpoint/resume forked the 100k schedule"
        )

    # -- Reference drain: schedule identity + the same-process ratio ----
    with _hatches(sim="0", dse="1"):
        reference_times = []
        for _ in range(BIG_REPEATS):
            elapsed, reference_result = _big_run(requests)
            reference_times.append(elapsed)
        assert result_fingerprint(reference_result) == fast_digest, (
            "batch-drain forked the 100k schedule from the seed engine"
        )

    events = fast_result.sim_events
    assert len(fast_result.served) == BIG_NUM_REQUESTS
    fast_best = min(fast_times)
    reference_best = min(reference_times)
    fast_rps = BIG_NUM_REQUESTS / fast_best
    reference_rps = BIG_NUM_REQUESTS / reference_best
    speedup = fast_rps / reference_rps

    artifact = json.loads(ARTIFACT_PATH.read_text()) if ARTIFACT_PATH.exists() else {
        "bench": "engine_serving_hot_path"
    }
    artifact["bigsim"] = {
        "description": (
            "100k-request seeded Poisson stream (80 rps, four models) "
            "through the 4-shard scheduler with aggregate traces: the "
            "batch-drain engine vs the reference drain in the same "
            "process (requests/s), exact events per request, and the "
            "peak-RSS ceiling, with fast/reference/checkpoint-resume "
            "schedules asserted byte-identical."
        ),
        "gate": {
            "min_speedup_vs_reference_drain": BIG_GATE_MIN_SPEEDUP,
            "sim_events": BIG_SIM_EVENTS,
            "max_rss_kb": BIG_MAX_RSS_KB,
        },
        "stream": {
            "requests": BIG_NUM_REQUESTS,
            "rate_rps": BIG_RATE_RPS,
            "seed": STREAM_SEED,
            "models": list(MODEL_NAMES),
            "num_shards": NUM_SHARDS,
            "max_inflight": MAX_INFLIGHT,
            "planning_overhead": "off",
            "trace_level": "aggregate",
        },
        "sim_events": events,
        "events_per_request": events / BIG_NUM_REQUESTS,
        "makespan_s": fast_result.makespan_s,
        "times_s": fast_times,
        "best_s": fast_best,
        "requests_per_sec": fast_rps,
        "events_per_sec": events / fast_best,
        "reference_times_s": reference_times,
        "reference_requests_per_sec": reference_rps,
        "speedup_vs_reference_drain": speedup,
        "max_rss_kb": max_rss_kb,
        "result_sha256": fast_digest,
    }
    ARTIFACT_PATH.write_text(json.dumps(artifact, indent=2) + "\n")

    print(
        f"bigsim: {events} events ({events / BIG_NUM_REQUESTS:.2f}/request), "
        f"{fast_rps:.0f} req/s in {fast_best:.2f}s, {speedup:.2f}x the "
        f"reference drain, peak RSS {max_rss_kb / 1024:.0f} MB"
    )

    assert events == BIG_SIM_EVENTS, (
        f"engine work changed: {events} events for {BIG_NUM_REQUESTS} requests,"
        f" pinned {BIG_SIM_EVENTS}"
    )
    assert speedup >= BIG_GATE_MIN_SPEEDUP, (
        f"batch-drain gate failed: {fast_rps:.0f} req/s is only "
        f"{speedup:.2f}x the reference drain ({reference_rps:.0f} req/s); "
        f"need {BIG_GATE_MIN_SPEEDUP}x"
    )
    assert max_rss_kb <= BIG_MAX_RSS_KB, (
        f"aggregate-trace memory is not flat: peak RSS {max_rss_kb} KB "
        f"exceeds the {BIG_MAX_RSS_KB} KB ceiling (leak on the 100k path?)"
    )
