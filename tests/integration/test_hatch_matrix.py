"""Cross-hatch differential matrix (ISSUE 5 satellite; fault dimension
added by ISSUE 6; router dimension added by ISSUE 7).

Four switches now steer the serving hot path: the simulation-engine
fast path (``REPRO_SIM_FASTPATH``), the DSE kernel fast path
(``REPRO_DSE_FASTPATH``), the trace level (``full`` vs ``aggregate``)
and the planning-overhead charging mode.  The first three are
*equivalence hatches* -- they must never change a single scheduled
event -- while ``planning_overhead``, the leader placement and the
fault process are *configurations* that legitimately change the
schedule.

This harness runs one pinned smoke stream through every scheduler
configuration and asserts the full 2x2x2 hatch grid inside each
configuration is schedule-identical: same completion timeline, same
``sim_events`` count (the schedule fingerprint), same makespan, energy,
traffic, scheduler counters and failure/retry accounting.  A future
fast-path optimisation that silently forks behaviour in any hatch
corner fails here immediately, with the offending (hatch,
configuration) pair in the assertion message.

The router dimension (ISSUE 7) extends the configuration axis through
the extracted routing layer: the legacy hash/affinity policies and the
full adaptive stack (clustered routing + epoch specialization +
per-epoch leader re-election) must each be hatch-invariant, including
the routing counters themselves.

The fault dimension (ISSUE 6) pins two more contracts: a *zero-event*
``PerturbationProcess`` is byte-identical to no fault process at all in
every hatch corner (arming it is a structural no-op), and a *seeded
churn* stream -- device loss, recovery, retries and all -- is itself
schedule-identical across the hatch grid.

The control dimension (ISSUE 9) pins the same pair of contracts for
the SLO control plane: ``control=None`` and a no-op
``ControlPolicy.noop()`` produce the same served timeline and counters
in every hatch corner (the wake timer adds simulation events, so
``sim_events`` is legitimately excluded from *that* comparison only),
and an *active* controller -- AIMD narrowing, admission rejections and
all -- is itself schedule-identical across the hatch grid.

Marked ``matrix``: ``pytest -m "smoke or matrix or chaos"`` is the fast
gate.
"""

import itertools

import pytest

from repro.dnn.models import MODEL_NAMES
from repro.metrics.serving import result_fingerprint
from repro.platform.cluster import build_cluster
from repro.serving import (
    LEADERS_DISTRIBUTED,
    LEADERS_EPOCH,
    LEADERS_SHARED,
    PLANNING_BUCKET,
    PLANNING_OFF,
    ControlPolicy,
    OnlineScheduler,
    PerturbationProcess,
    RetryPolicy,
    ShardedScheduler,
)
from repro.workloads.arrivals import bursty_stream

pytestmark = pytest.mark.matrix

#: The equivalence-hatch grid: (sim fastpath, dse fastpath, trace level).
HATCH_GRID = tuple(
    itertools.product(("1", "0"), ("1", "0"), ("full", "aggregate"))
)

#: Scheduler configurations that legitimately change the schedule:
#: (name, planning mode, leader policy, router, epoch length).  The
#: router dimension (ISSUE 7) covers both legacy policies through the
#: extracted routing layer plus the full adaptive stack (clustered
#: routing, epoch specialization, per-epoch leader re-election) --
#: every corner must still be hatch-invariant.
CONFIGS = (
    ("bucket-shared-hash", PLANNING_BUCKET, LEADERS_SHARED, "hash", 0.0),
    ("bucket-distributed-hash", PLANNING_BUCKET, LEADERS_DISTRIBUTED, "hash", 0.0),
    ("off-shared-hash", PLANNING_OFF, LEADERS_SHARED, "hash", 0.0),
    ("off-distributed-hash", PLANNING_OFF, LEADERS_DISTRIBUTED, "hash", 0.0),
    ("bucket-shared-affinity", PLANNING_BUCKET, LEADERS_SHARED, "affinity", 0.0),
    ("bucket-epoch-clustered", PLANNING_BUCKET, LEADERS_EPOCH, "clustered", 0.5),
)


#: The fault dimension: a zero-event process must change *nothing*; a
#: seeded churn process changes the schedule but must itself be stable
#: across every hatch corner.  Leader devices are protected by the
#: scheduler, so the fault tests run the *shared*-leader configuration
#: (only ``jetson_tx2`` shielded) on a heavy fan-out stream -- that
#: combination reliably catches plans on a lost follower mid-flight.
ZERO_FAULTS = PerturbationProcess(seed=29)
CHURN_FAULTS = PerturbationProcess(
    seed=29,
    horizon_s=14.0,
    churn_rate=1.0,
    mean_outage_s=1.0,
    link_rate=0.2,
    dvfs_rate=0.2,
)
CHURN_RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.05)


def _cluster():
    return build_cluster(["jetson_tx2", "jetson_orin_nx", "jetson_nano"])


def _stream():
    """The pinned smoke stream: bursty, two heavy + two light models,
    a priority mix, short enough for 32 runs to stay fast."""
    return bursty_stream(
        (MODEL_NAMES[0], MODEL_NAMES[2], "tiny_cnn", "mobilenet_v2"),
        burst_size=5,
        num_bursts=3,
        mean_gap_s=0.8,
        seed=17,
        priority_weights={0: 0.3, 2: 0.7},
    )


def _fingerprint(result):
    """Everything a schedule-identical run must reproduce exactly."""
    return {
        "timeline": [
            (
                record.request.request_id,
                record.dispatched_s,
                record.completed_s,
                record.replanned,
            )
            for record in result.served
        ],
        "sim_events": result.sim_events,
        "makespan_s": result.makespan_s,
        "energy_j": result.energy_j,
        "network_bytes": result.network_bytes,
        "total_flops": result.total_flops,
        "batches": result.batches,
        "replans": result.replans,
        "steals": result.steals,
        "preemptions": result.preemptions,
        "planning_charged_s": result.planning_charged_s,
        "leader_devices": result.leader_devices,
        "dispatched_by_shard": result.dispatched_by_shard,
        # Failure/retry accounting (ISSUE 6).  ``shed_requests`` stays
        # out: it is a per-entry view materialised at trace_level="full"
        # only, so it legitimately differs between trace hatches.
        "failures": result.failures,
        "retries": result.retries,
        "shed": result.shed,
        "downgraded": result.downgraded,
        "fault_events": result.fault_events,
        "readmitted_by_shard": result.readmitted_by_shard,
        # Routing-layer accounting (ISSUE 7): the admission split, the
        # epoch/spill/cold counters and re-elections must all be
        # hatch-invariant too.
        "router": result.router,
        "epochs": result.epochs,
        "spilled": result.spilled,
        "cold_routed": result.cold_routed,
        "leader_reelections": result.leader_reelections,
        "routed_by_shard": tuple(result.routing.routed) if result.routing else (),
        # Control-plane accounting (ISSUE 9): the rejected bucket and
        # every actuation counter must be hatch-invariant.
        "rejected": result.rejected,
        "control_counters": (
            result.control.counters() if result.control is not None else None
        ),
    }


@pytest.mark.parametrize(
    "name,planning,leader_policy,router,epoch_s", CONFIGS, ids=[c[0] for c in CONFIGS]
)
def test_sharded_hatch_grid_schedule_identical(
    monkeypatch, name, planning, leader_policy, router, epoch_s
):
    requests = _stream()
    reference = None
    reference_hatch = None
    for sim_fast, dse_fast, trace_level in HATCH_GRID:
        monkeypatch.setenv("REPRO_SIM_FASTPATH", sim_fast)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", dse_fast)
        result = ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=3,
            planning_overhead=planning,
            leader_policy=leader_policy,
            router=router,
            epoch_s=epoch_s,
            trace_level=trace_level,
        ).run(requests)
        fingerprint = _fingerprint(result)
        if reference is None:
            reference, reference_hatch = fingerprint, (sim_fast, dse_fast, trace_level)
            assert result.count == len(requests)
            continue
        for field, expected in reference.items():
            assert fingerprint[field] == expected, (
                f"config {name}: hatch (sim={sim_fast}, dse={dse_fast}, "
                f"trace={trace_level}) forked {field} from reference hatch "
                f"{reference_hatch}"
            )


def test_online_scheduler_hatch_grid_schedule_identical(monkeypatch):
    """The one-shard preset (``OnlineScheduler``) rides the same hatches."""
    requests = _stream()
    reference = None
    for sim_fast, dse_fast, trace_level in HATCH_GRID:
        monkeypatch.setenv("REPRO_SIM_FASTPATH", sim_fast)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", dse_fast)
        result = OnlineScheduler(
            cluster=_cluster(), max_inflight=3, trace_level=trace_level
        ).run(requests)
        fingerprint = _fingerprint(result)
        if reference is None:
            reference = fingerprint
            continue
        assert fingerprint == reference


def _fault_stream():
    """A heavier pinned stream for the fault dimension: the three
    biggest models fan out across followers, so a mid-outage plan
    actually touches the lost board."""
    return bursty_stream(
        ("vgg19", "inception_v3", "resnet152", "tiny_cnn"),
        burst_size=5,
        num_bursts=3,
        mean_gap_s=0.8,
        seed=17,
        priority_weights={0: 0.3, 2: 0.7},
    )


def _run_scheduler(
    scheduler, requests, trace_level="full", faults=None, retry=None, control=None
):
    """One pinned run of the one-shard preset or a two-shard config,
    optionally under faults."""
    kwargs = {"cluster": _cluster(), "max_inflight": 3, "trace_level": trace_level}
    if faults is not None:
        kwargs["faults"] = faults
    if retry is not None:
        kwargs["retry"] = retry
    if control is not None:
        kwargs["control"] = control
    if scheduler == "online":
        return OnlineScheduler(**kwargs).run(requests)
    return ShardedScheduler(
        num_shards=2,
        planning_overhead=PLANNING_BUCKET,
        leader_policy=LEADERS_SHARED,
        **kwargs,
    ).run(requests)


@pytest.mark.parametrize("scheduler", ("sharded", "online"))
def test_zero_event_faults_byte_identical(monkeypatch, scheduler):
    """The degenerate pin: arming a zero-event ``PerturbationProcess``
    is a structural no-op -- every hatch corner reproduces the
    fault-free schedule byte for byte."""
    requests = _fault_stream()
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
    healthy = _fingerprint(_run_scheduler(scheduler, requests))
    assert healthy["fault_events"] == 0
    for sim_fast, dse_fast, trace_level in HATCH_GRID:
        monkeypatch.setenv("REPRO_SIM_FASTPATH", sim_fast)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", dse_fast)
        armed = _fingerprint(
            _run_scheduler(scheduler, requests, trace_level=trace_level, faults=ZERO_FAULTS)
        )
        for field, expected in healthy.items():
            assert armed[field] == expected, (
                f"{scheduler}: zero-event faults forked {field} in hatch "
                f"(sim={sim_fast}, dse={dse_fast}, trace={trace_level})"
            )


@pytest.mark.parametrize("scheduler", ("sharded", "online"))
def test_churn_hatch_grid_schedule_identical(monkeypatch, scheduler):
    """A seeded churn stream -- device loss, replans, retries and all --
    must itself be schedule-identical across the hatch grid."""
    requests = _fault_stream()
    reference = None
    reference_hatch = None
    for sim_fast, dse_fast, trace_level in HATCH_GRID:
        monkeypatch.setenv("REPRO_SIM_FASTPATH", sim_fast)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", dse_fast)
        result = _run_scheduler(
            scheduler,
            requests,
            trace_level=trace_level,
            faults=CHURN_FAULTS,
            retry=CHURN_RETRY,
        )
        assert result.failures == result.retries + result.shed
        assert result.count + result.shed == len(requests)
        fingerprint = _fingerprint(result)
        if reference is None:
            reference, reference_hatch = fingerprint, (sim_fast, dse_fast, trace_level)
            continue
        for field, expected in reference.items():
            assert fingerprint[field] == expected, (
                f"{scheduler}: churn hatch (sim={sim_fast}, dse={dse_fast}, "
                f"trace={trace_level}) forked {field} from reference hatch "
                f"{reference_hatch}"
            )


@pytest.mark.parametrize("scheduler", ("sharded", "online"))
def test_fault_dimension_has_teeth(scheduler):
    """The churn corner only guards recovery if faults actually land:
    events must apply, failures must occur, and the schedule must
    genuinely differ from the healthy run."""
    requests = _fault_stream()
    healthy = _run_scheduler(scheduler, requests)
    churned = _run_scheduler(scheduler, requests, faults=CHURN_FAULTS, retry=CHURN_RETRY)
    assert churned.fault_events > 0
    assert churned.failures > 0
    assert _fingerprint(churned) != _fingerprint(healthy)


def test_configurations_do_differ():
    """The matrix only has teeth if the *configurations* are genuinely
    distinct schedules: charging planning must shift the schedule, and
    distributed leaders must elect distinct devices."""
    requests = _stream()

    def run(planning, policy):
        return ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=3,
            planning_overhead=planning,
            leader_policy=policy,
        ).run(requests)

    charged = run(PLANNING_BUCKET, LEADERS_SHARED)
    free = run(PLANNING_OFF, LEADERS_SHARED)
    distributed = run(PLANNING_BUCKET, LEADERS_DISTRIBUTED)
    assert charged.planning_charged_s > 0 and free.planning_charged_s == 0
    assert charged.sim_events != free.sim_events or charged.makespan_s != free.makespan_s
    assert set(distributed.leader_devices) == {"jetson_tx2", "jetson_orin_nx"}
    assert distributed.makespan_s != charged.makespan_s


def test_router_dimension_has_teeth():
    """The router corners are genuinely distinct configurations: the
    affinity and clustered admission splits differ from hash, and the
    clustered corner actually runs epochs.

    Uses a *shuffled* model stream: on the pinned matrix stream the
    models cycle in lockstep with the request ids, so hash and affinity
    coincidentally agree on every route."""
    requests = bursty_stream(
        (MODEL_NAMES[0], MODEL_NAMES[2], "tiny_cnn", "mobilenet_v2"),
        burst_size=5,
        num_bursts=3,
        mean_gap_s=0.8,
        seed=17,
        shuffle_models=True,
    )

    def run(router, leader_policy=LEADERS_SHARED, epoch_s=0.0):
        return ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=3,
            planning_overhead=PLANNING_BUCKET,
            leader_policy=leader_policy,
            router=router,
            epoch_s=epoch_s,
        ).run(requests)

    def timeline(result):
        return [
            (record.request.request_id, record.dispatched_s, record.completed_s)
            for record in result.served
        ]

    hashed = run("hash")
    affine = run("affinity")
    clustered = run("clustered", leader_policy=LEADERS_EPOCH, epoch_s=0.5)
    assert timeline(hashed) != timeline(affine)
    assert clustered.epochs > 0
    assert clustered.cold_routed > 0
    assert {hashed.router, affine.router, clustered.router} == {
        "hash",
        "affinity",
        "clustered",
    }


#: Leader-policy corners for the checkpoint/resume dimension (ISSUE
#: 10): shared, distributed and the full epoch stack (clustered router
#: + re-election), each of which moves generator frames across plan
#: segments differently.
CHECKPOINT_CORNERS = (
    ("shared", LEADERS_SHARED, "hash", 0.0),
    ("distributed", LEADERS_DISTRIBUTED, "hash", 0.0),
    ("epoch", LEADERS_EPOCH, "clustered", 0.5),
)


@pytest.mark.parametrize(
    "name,leader_policy,router,epoch_s",
    CHECKPOINT_CORNERS,
    ids=[c[0] for c in CHECKPOINT_CORNERS],
)
def test_checkpoint_resume_hatch_grid_byte_identical(
    monkeypatch, name, leader_policy, router, epoch_s
):
    """ISSUE 10 satellite: snapshot a seeded stream mid-run, resume,
    and the resumed ``ServingResult`` digests byte-identical to the
    uninterrupted run in every hatch corner of every leader policy."""
    requests = _stream()

    def scheduler():
        return ShardedScheduler(
            cluster=_cluster(),
            num_shards=2,
            max_inflight=3,
            planning_overhead=PLANNING_BUCKET,
            leader_policy=leader_policy,
            router=router,
            epoch_s=epoch_s,
        )

    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
    plain = scheduler().run(requests)
    reference = result_fingerprint(plain)
    pause_at = plain.makespan_s / 2
    for sim_fast, dse_fast, trace_level in HATCH_GRID:
        monkeypatch.setenv("REPRO_SIM_FASTPATH", sim_fast)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", dse_fast)
        checkpoint = scheduler().run(requests, checkpoint_at_s=pause_at)
        assert checkpoint.sim_time == pause_at
        assert 0 < checkpoint.served_count < len(requests)
        assert checkpoint.pending_events > 0
        resumed = checkpoint.resume()
        assert result_fingerprint(resumed) == reference, (
            f"{name}: checkpoint/resume forked the schedule in hatch "
            f"(sim={sim_fast}, dse={dse_fast}, trace={trace_level})"
        )


@pytest.mark.parametrize("scheduler", ("sharded", "online"))
def test_checkpoint_resume_faults_armed_byte_identical(monkeypatch, scheduler):
    """The faults-armed corner: pausing mid-churn -- retries queued,
    devices down, recovery in flight -- must still resume to the exact
    uninterrupted schedule in every hatch corner."""
    requests = _fault_stream()
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
    plain = _run_scheduler(scheduler, requests, faults=CHURN_FAULTS, retry=CHURN_RETRY)
    assert plain.fault_events > 0  # the corner only guards armed runs
    reference = result_fingerprint(plain)
    pause_at = plain.makespan_s / 2
    kwargs = {"cluster": _cluster(), "max_inflight": 3}
    for sim_fast, dse_fast, trace_level in HATCH_GRID:
        monkeypatch.setenv("REPRO_SIM_FASTPATH", sim_fast)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", dse_fast)
        if scheduler == "online":
            tier = OnlineScheduler(
                trace_level=trace_level,
                faults=CHURN_FAULTS,
                retry=CHURN_RETRY,
                **kwargs,
            )
        else:
            tier = ShardedScheduler(
                num_shards=2,
                planning_overhead=PLANNING_BUCKET,
                leader_policy=LEADERS_SHARED,
                trace_level=trace_level,
                faults=CHURN_FAULTS,
                retry=CHURN_RETRY,
                **kwargs,
            )
        resumed = tier.run(requests, checkpoint_at_s=pause_at).resume()
        assert result_fingerprint(resumed) == reference, (
            f"{scheduler}: faults-armed checkpoint/resume forked the "
            f"schedule in hatch (sim={sim_fast}, dse={dse_fast}, "
            f"trace={trace_level})"
        )


def test_checkpoint_records_segment_progress():
    """The pause handle is a consistency cut: it reports the simulated
    pause time, the prefix's served count, the live heap size and how
    many plan-segment boundaries each in-flight execution had crossed."""
    requests = _stream()
    plain = ShardedScheduler(
        cluster=_cluster(), num_shards=2, max_inflight=3
    ).run(requests)
    checkpoint = ShardedScheduler(
        cluster=_cluster(), num_shards=2, max_inflight=3
    ).run(requests, checkpoint_at_s=plain.makespan_s / 2)
    assert checkpoint.segments  # dispatched requests crossed boundaries
    assert all(count > 0 for count in checkpoint.segments.values())
    resumed = checkpoint.resume()
    assert result_fingerprint(resumed) == result_fingerprint(plain)


#: An *active* control policy for the control dimension: a tight SLO
#: forces AIMD narrowing and a low pressure bound forces admission
#: rejections on the pinned stream, so the corner genuinely actuates.
ACTIVE_CONTROL = ControlPolicy(
    interval_s=0.2,
    slo_s=0.4,
    min_inflight=1,
    max_inflight=6,
    admission="reject",
    admission_pressure=4,
)

#: Fields legitimately excluded from the ``control=None`` vs
#: ``ControlPolicy.noop()`` comparison: the wake timer adds simulation
#: events, and a bound (if idle) ControlTrace exists only when a
#: controller does.
NOOP_CONTROL_EXCLUDED = ("sim_events", "control_counters")


@pytest.mark.parametrize("scheduler", ("sharded", "online"))
def test_noop_control_byte_identical(monkeypatch, scheduler):
    """The degenerate pin (ISSUE 9): a no-op ``ControlPolicy`` -- every
    actuator off -- reproduces the control-free schedule in every hatch
    corner.  Only ``sim_events`` may differ (the wake timer itself)."""
    requests = _stream()
    monkeypatch.setenv("REPRO_SIM_FASTPATH", "1")
    monkeypatch.setenv("REPRO_DSE_FASTPATH", "1")
    bare = _fingerprint(_run_scheduler(scheduler, requests))
    assert bare["rejected"] == 0
    for sim_fast, dse_fast, trace_level in HATCH_GRID:
        monkeypatch.setenv("REPRO_SIM_FASTPATH", sim_fast)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", dse_fast)
        noop = _fingerprint(
            _run_scheduler(
                scheduler, requests, trace_level=trace_level,
                control=ControlPolicy.noop(),
            )
        )
        for field, expected in bare.items():
            if field in NOOP_CONTROL_EXCLUDED:
                continue
            assert noop[field] == expected, (
                f"{scheduler}: no-op control forked {field} in hatch "
                f"(sim={sim_fast}, dse={dse_fast}, trace={trace_level})"
            )


@pytest.mark.parametrize("scheduler", ("sharded", "online"))
def test_control_hatch_grid_schedule_identical(monkeypatch, scheduler):
    """An *active* controller -- AIMD narrowing, admission rejections
    and all -- must itself be schedule-identical across the hatch grid,
    actuation counters included."""
    requests = _stream()
    reference = None
    reference_hatch = None
    for sim_fast, dse_fast, trace_level in HATCH_GRID:
        monkeypatch.setenv("REPRO_SIM_FASTPATH", sim_fast)
        monkeypatch.setenv("REPRO_DSE_FASTPATH", dse_fast)
        result = _run_scheduler(
            scheduler, requests, trace_level=trace_level, control=ACTIVE_CONTROL
        )
        assert result.count + result.shed + result.rejected == len(requests)
        fingerprint = _fingerprint(result)
        if reference is None:
            reference, reference_hatch = fingerprint, (sim_fast, dse_fast, trace_level)
            continue
        for field, expected in reference.items():
            assert fingerprint[field] == expected, (
                f"{scheduler}: control hatch (sim={sim_fast}, dse={dse_fast}, "
                f"trace={trace_level}) forked {field} from reference hatch "
                f"{reference_hatch}"
            )


@pytest.mark.parametrize("scheduler", ("sharded", "online"))
def test_control_dimension_has_teeth(scheduler):
    """The control corner only guards actuation if the controller
    actually acts: the active policy must narrow or reject, and the
    schedule must genuinely differ from the control-free run."""
    requests = _stream()
    bare = _run_scheduler(scheduler, requests)
    controlled = _run_scheduler(scheduler, requests, control=ACTIVE_CONTROL)
    counters = controlled.control.counters()
    assert counters["narrowed"] + counters["rejected_pressure"] > 0
    assert _fingerprint(controlled)["timeline"] != _fingerprint(bare)["timeline"]
