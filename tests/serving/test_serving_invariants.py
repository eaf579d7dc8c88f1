"""Randomized serving invariants (ISSUE 5 satellite; churn trials by
ISSUE 6).

Seeded property-style tests: random scheduler configurations (shard
count, batch/window sizes, assignment, stealing, preemption, priority
mixes, leader placement) serve random arrival streams, and on every
run the structural invariants must hold:

- every admitted request completes exactly once;
- the capacity-1 no-overlap invariant holds on all stations;
- per-shard steal/donation counters reconcile with queue totals:
  admissions partition the stream and total steals equal the moved
  items (the per-shard dispatch balance itself is checked inside
  ``run``, which raises ``AccountingError`` when it fails).

The ``chaos``-marked trials re-run the same property under seeded fault
injection with a random retry/degradation policy: exactly-once relaxes
to *completes once XOR is shed*, and the failure counters must
reconcile exactly (``failures == retries + shed`` is checked inside
``run``; re-admissions join the dispatch total).

The controller trials (ISSUE 9) put a randomly drawn
:class:`ControlPolicy` on top of the churn draws: the door may now
reject or downgrade arrivals, breakers may freeze and restore shards,
and AIMD may resize the inflight window mid-stream -- yet the same
ledger must reconcile with ``rejected`` as a third terminal bucket
(served, shed and rejected ids partition the stream).

The draws are seeded, so a failure reproduces deterministically from
the printed trial seed.
"""

import random

import pytest

from repro.faults import DEGRADATIONS
from repro.platform.cluster import build_cluster
from repro.serving import (
    ASSIGN_HASH,
    ASSIGN_MODEL,
    LEADERS_DISTRIBUTED,
    LEADERS_SHARED,
    PLANNING_BUCKET,
    PLANNING_OFF,
    ControlPolicy,
    PerturbationProcess,
    RetryPolicy,
    ShardedScheduler,
)
from repro.serving.control import (
    ADMISSION_DOWNGRADE,
    ADMISSION_NONE,
    ADMISSION_REJECT,
)
from repro.workloads.arrivals import (
    bursty_stream,
    heavy_tailed_stream,
    poisson_stream,
)

MODELS = ("tiny_cnn", "tiny_residual", "tiny_depthwise", "mobilenet_v2")

#: The chaos trials serve the big models: their plans fan out across
#: followers, so a random outage actually lands mid-plan.
CHAOS_MODELS = ("vgg19", "inception_v3", "resnet152", "tiny_cnn")

TRIAL_SEEDS = tuple(range(6))
CHAOS_TRIAL_SEEDS = tuple(range(5))
CONTROL_TRIAL_SEEDS = tuple(range(5))


def _random_stream(rng):
    kind = rng.choice(("poisson", "bursty", "heavy_tailed"))
    models = tuple(rng.sample(MODELS, rng.randint(1, len(MODELS))))
    weights = rng.choice((None, {0: 0.4, 1: 0.6}, {0: 0.2, 2: 0.5, 5: 0.3}))
    seed = rng.randrange(10_000)
    if kind == "poisson":
        return poisson_stream(
            models, rate_rps=rng.uniform(3.0, 12.0), num_requests=rng.randint(8, 24),
            seed=seed, priority_weights=weights,
        )
    if kind == "bursty":
        return bursty_stream(
            models, burst_size=rng.randint(2, 8), num_bursts=rng.randint(2, 4),
            mean_gap_s=rng.uniform(0.2, 2.0), seed=seed, priority_weights=weights,
        )
    return heavy_tailed_stream(
        models, scale_s=rng.uniform(0.05, 0.3), num_requests=rng.randint(8, 24),
        alpha=1.5, max_gap_s=3.0, seed=seed, priority_weights=weights,
    )


def _random_scheduler(rng, **extra):
    return ShardedScheduler(
        cluster=build_cluster(["jetson_tx2", "jetson_orin_nx", "jetson_nano"]),
        num_shards=rng.randint(1, 4),
        max_batch=rng.randint(2, 8),
        max_inflight=rng.randint(1, 6),
        assignment=rng.choice((ASSIGN_HASH, ASSIGN_MODEL)),
        planning_overhead=rng.choice((PLANNING_BUCKET, PLANNING_OFF, 0.01)),
        preemption=rng.choice((True, False)),
        steal_threshold=rng.randint(1, 3),
        leader_policy=rng.choice((LEADERS_SHARED, LEADERS_DISTRIBUTED)),
        **extra,
    )


def _random_faults(rng):
    return PerturbationProcess(
        seed=rng.randrange(10_000),
        horizon_s=rng.uniform(8.0, 18.0),
        churn_rate=rng.uniform(0.4, 1.5),
        mean_outage_s=rng.uniform(0.4, 1.2),
        link_rate=rng.uniform(0.0, 0.3),
        link_factor=rng.uniform(2.0, 6.0),
        dvfs_rate=rng.uniform(0.0, 0.3),
        dvfs_factor=rng.uniform(1.5, 3.0),
    )


def _random_control(rng):
    """A random self-protection policy: any mix of AIMD concurrency,
    elastic shards, door admission, deadline shedding and breakers."""
    return ControlPolicy(
        interval_s=rng.uniform(0.1, 0.5),
        slo_s=rng.uniform(0.5, 2.0),
        concurrency=rng.choice((True, False)),
        min_inflight=1,
        max_inflight=8,
        widen_by=rng.randint(1, 2),
        narrow_factor=rng.uniform(0.5, 0.8),
        elastic=rng.choice((True, False)),
        min_shards=1,
        scale_up_backlog=rng.uniform(2.0, 6.0),
        scale_down_backlog=rng.uniform(0.5, 1.5),
        admission=rng.choice(
            (ADMISSION_NONE, ADMISSION_REJECT, ADMISSION_DOWNGRADE)
        ),
        admission_pressure=rng.randint(3, 12),
        admission_downgrade_by=rng.randint(1, 3),
        deadline_shed=rng.choice((True, False)),
        breaker_failures=rng.choice((0, 2, 3)),
        breaker_window_s=rng.uniform(1.0, 3.0),
        breaker_cooldown_s=rng.uniform(0.5, 2.0),
    )


def _random_retry(rng):
    return RetryPolicy(
        max_retries=rng.randint(0, 3),
        backoff_base_s=rng.uniform(0.01, 0.1),
        degradation=rng.choice(DEGRADATIONS),
        pressure_threshold=rng.randint(2, 10),
    )


@pytest.mark.parametrize("trial", TRIAL_SEEDS)
def test_randomized_serving_invariants(trial):
    rng = random.Random(9000 + trial)
    requests = _random_stream(rng)
    scheduler = _random_scheduler(rng)
    context = (
        f"trial={trial} shards={scheduler.num_shards} "
        f"batch={scheduler.max_batch} inflight={scheduler.max_inflight} "
        f"assign={scheduler.assignment} planning={scheduler.planning_overhead!r} "
        f"preempt={scheduler.preemption} leaders={scheduler.leader_policy} "
        f"requests={len(requests)}"
    )

    result = scheduler.run(requests)

    # Every admission completes exactly once.
    assert result.count == len(requests), context
    served_ids = sorted(record.request.request_id for record in result.served)
    assert served_ids == sorted(r.request_id for r in requests), context

    # Timelines are causally ordered.
    for record in result.served:
        assert record.arrival_s <= record.dispatched_s <= record.completed_s, context

    # Capacity-1 stations never overlap busy intervals.
    result.busy.assert_no_overlaps()

    # Per-shard accounting reconciles with the queue totals.
    shards = scheduler.num_shards
    for counters in (
        result.admitted_by_shard,
        result.dispatched_by_shard,
        result.stolen_in_by_shard,
        result.stolen_out_by_shard,
    ):
        assert len(counters) == shards, context
    assert sum(result.admitted_by_shard) == len(requests), context
    assert sum(result.dispatched_by_shard) == len(requests), context
    assert sum(result.stolen_in_by_shard) == sum(result.stolen_out_by_shard), context
    assert sum(result.stolen_in_by_shard) == result.steals, context

    # Leader bookkeeping matches the policy.
    assert len(result.leader_devices) == shards, context
    if scheduler.leader_policy == LEADERS_SHARED:
        assert set(result.leader_devices) == {"jetson_tx2"}, context


@pytest.mark.chaos
@pytest.mark.parametrize("trial", CHAOS_TRIAL_SEEDS)
def test_randomized_churn_invariants(trial):
    """The same structural property under seeded fault injection."""
    rng = random.Random(7000 + trial)
    requests = poisson_stream(
        tuple(rng.sample(CHAOS_MODELS, rng.randint(2, len(CHAOS_MODELS)))),
        rate_rps=rng.uniform(1.0, 3.0),
        num_requests=rng.randint(12, 24),
        seed=rng.randrange(10_000),
        priority_weights=rng.choice((None, {0: 0.3, 2: 0.7})),
    )
    faults = _random_faults(rng)
    retry = _random_retry(rng)
    scheduler = _random_scheduler(rng, faults=faults, retry=retry)
    context = (
        f"trial={trial} shards={scheduler.num_shards} "
        f"inflight={scheduler.max_inflight} leaders={scheduler.leader_policy} "
        f"faults={faults} retry={retry} requests={len(requests)}"
    )

    result = scheduler.run(requests)

    # Exactly-once XOR shed: served and shed ids partition the stream.
    served_ids = sorted(record.request.request_id for record in result.served)
    assert len(set(served_ids)) == len(served_ids), context
    shed_ids = set(result.shed_requests)
    assert shed_ids.isdisjoint(served_ids), context
    assert sorted(set(served_ids) | shed_ids) == sorted(
        r.request_id for r in requests
    ), context
    assert result.count + result.shed == len(requests), context

    # Timelines stay causally ordered and stations never overlap.
    for record in result.served:
        assert record.arrival_s <= record.dispatched_s <= record.completed_s, context
    result.busy.assert_no_overlaps()

    # Failure accounting reconciles exactly.
    assert len(shed_ids) == result.shed, context
    assert sum(result.readmitted_by_shard) == result.retries, context
    trace = result.faults
    assert trace is not None, context
    assert trace.failures == result.failures, context
    recovered = sum(1 for record in result.served if record.attempts > 1)
    assert trace.recovered == recovered, context
    # Served re-admissions are a lower bound: shed requests may have
    # burned retries before giving up.
    assert result.retries >= sum(record.attempts - 1 for record in result.served), context

    # Re-admissions join the dispatch total.
    assert sum(result.admitted_by_shard) == len(requests), context
    assert sum(result.dispatched_by_shard) == (
        result.count + result.shed + result.retries
    ), context


def _control_trial(trial):
    rng = random.Random(6000 + trial)
    requests = poisson_stream(
        tuple(rng.sample(CHAOS_MODELS, rng.randint(2, len(CHAOS_MODELS)))),
        rate_rps=rng.uniform(1.0, 3.0),
        num_requests=rng.randint(12, 24),
        seed=rng.randrange(10_000),
        priority_weights=rng.choice((None, {0: 0.3, 2: 0.7})),
    )
    faults = _random_faults(rng)
    retry = _random_retry(rng)
    control = _random_control(rng)
    scheduler = _random_scheduler(
        rng, faults=faults, retry=retry, control=control, trace_level="full"
    )
    return requests, control, scheduler


@pytest.mark.chaos
@pytest.mark.control
@pytest.mark.parametrize("trial", CONTROL_TRIAL_SEEDS)
def test_randomized_control_churn_invariants(trial):
    """The churn property with a random controller in the loop: the
    door may reject, breakers may freeze shards, AIMD may resize the
    window -- the ledger must still balance with ``rejected`` as a
    third terminal bucket."""
    requests, control, scheduler = _control_trial(trial)
    context = (
        f"trial={trial} shards={scheduler.num_shards} "
        f"inflight={scheduler.max_inflight} leaders={scheduler.leader_policy} "
        f"control={control} requests={len(requests)}"
    )

    result = scheduler.run(requests)

    # Served, shed and rejected ids partition the stream.
    served_ids = sorted(record.request.request_id for record in result.served)
    assert len(set(served_ids)) == len(served_ids), context
    shed_ids = set(result.shed_requests)
    rejected_ids = set(result.rejected_requests)
    assert shed_ids.isdisjoint(served_ids), context
    assert rejected_ids.isdisjoint(served_ids), context
    assert rejected_ids.isdisjoint(shed_ids), context
    assert sorted(set(served_ids) | shed_ids | rejected_ids) == sorted(
        r.request_id for r in requests
    ), context
    assert result.count + result.shed + result.rejected == len(requests), context

    # Timelines stay causally ordered and stations never overlap, even
    # across breaker freezes and elastic rescales.
    for record in result.served:
        assert record.arrival_s <= record.dispatched_s <= record.completed_s, context
    result.busy.assert_no_overlaps()

    # Failure accounting is untouched by control actions.
    assert result.faults is not None and result.faults.failures == result.failures, context

    # The control trace reconciles with the result's terminal buckets.
    trace = result.control
    assert trace is not None, context
    assert trace.wakeups > 0, context
    assert trace.rejected == result.rejected, context
    # A served record at a worse priority than it arrived with was
    # downgraded either at the door or by the retry policy -- the two
    # ledgers together must account for every such record.
    arrived_priority = {r.request_id: r.priority for r in requests}
    worsened = sum(
        1 for record in result.served
        if record.request.priority > arrived_priority[record.request.request_id]
    )
    assert worsened <= trace.door_downgraded + result.faults.downgraded, context

    # Door rejections never reach a shard: admissions cover exactly the
    # non-rejected prefix of the ledger, and re-admissions still join
    # the dispatch total.
    assert sum(result.admitted_by_shard) == len(requests) - result.rejected, context
    assert sum(result.dispatched_by_shard) == (
        result.count + result.shed + result.retries
    ), context


@pytest.mark.chaos
@pytest.mark.control
def test_control_churn_trials_are_not_vacuous():
    """Across the controller draws, the controller must actually act
    (actuations) and the fault path must actually fire (failures), or
    the property above tests a no-op."""
    total_actuations = 0
    total_failures = 0
    for trial in CONTROL_TRIAL_SEEDS:
        requests, _, scheduler = _control_trial(trial)
        result = scheduler.run(requests)
        total_actuations += result.control.actuations
        total_failures += result.failures
    assert total_actuations > 0
    assert total_failures > 0


@pytest.mark.chaos
def test_churn_trials_are_not_vacuous():
    """At least one chaos draw must actually fail and recover a
    request, or the property above never exercises the fault path."""
    total_failures = 0
    total_recovered = 0
    for trial in CHAOS_TRIAL_SEEDS:
        rng = random.Random(7000 + trial)
        requests = poisson_stream(
            tuple(rng.sample(CHAOS_MODELS, rng.randint(2, len(CHAOS_MODELS)))),
            rate_rps=rng.uniform(1.0, 3.0),
            num_requests=rng.randint(12, 24),
            seed=rng.randrange(10_000),
            priority_weights=rng.choice((None, {0: 0.3, 2: 0.7})),
        )
        faults = _random_faults(rng)
        retry = _random_retry(rng)
        result = _random_scheduler(rng, faults=faults, retry=retry).run(requests)
        total_failures += result.failures
        total_recovered += result.faults.recovered
    assert total_failures > 0
    assert total_recovered > 0


def test_randomized_runs_are_deterministic():
    """The same (seeded) draw replays to the same timeline."""
    def once():
        rng = random.Random(4242)
        requests = _random_stream(rng)
        scheduler = _random_scheduler(rng)
        result = scheduler.run(requests)
        return [
            (r.request.request_id, r.dispatched_s, r.completed_s)
            for r in result.served
        ]

    assert once() == once()
