"""Outcome digests pinned across engine changes.

:func:`~repro.metrics.serving.outcome_fingerprint` hashes everything a
serving run reports except the engine's event count, so a change to
*how* the simulator schedules work (fewer events, fewer processes) must
leave these constants untouched.  The streams cover the three regimes
whose timing is easiest to disturb: a fault-free heavy stream, seeded
churn whose link degradations land while legs are queued or still
serialising (so the channel must re-plan them), and a
battery that drains mid-run (the sampler reads busy time while holds
are in flight).  The full-trace stream additionally pins every busy
interval and transfer record, per key and in order.

A digest that moves means the simulated behaviour changed: that is a
model change and needs its own justification, not a re-pin.
"""

import hashlib

import pytest

from repro.dnn.models import MODEL_NAMES
from repro.faults import LINK_DEGRADE
from repro.metrics.serving import outcome_fingerprint, result_fingerprint
from repro.platform.cluster import build_cluster
from repro.platform.power import BatteryModel
from repro.serving import (
    ControlPolicy,
    PerturbationProcess,
    RetryPolicy,
    ShardedScheduler,
)
from repro.sim import runtime as runtime_module
from repro.workloads.arrivals import bursty_stream, poisson_stream

HEAVY = ("vgg19", "resnet152", "inception_v3")


def _cluster():
    return build_cluster(["jetson_tx2", "jetson_orin_nx", "jetson_nano"])


def _fault_free():
    return ShardedScheduler(
        cluster=_cluster(), num_shards=2, max_inflight=4, trace_level="full"
    ).run(
        bursty_stream(
            (MODEL_NAMES[0], MODEL_NAMES[2], "tiny_cnn", "mobilenet_v2"),
            burst_size=5,
            num_bursts=3,
            mean_gap_s=0.8,
            seed=17,
        )
    )


CHURN_FAULTS = PerturbationProcess(
    seed=29,
    horizon_s=14.0,
    churn_rate=1.0,
    mean_outage_s=1.0,
    link_rate=1.5,
    dvfs_rate=0.4,
)


def _churn():
    return ShardedScheduler(
        cluster=_cluster(),
        num_shards=2,
        max_inflight=4,
        faults=CHURN_FAULTS,
        retry=RetryPolicy(max_retries=3, backoff_base_s=0.05),
        trace_level="aggregate",
    ).run(poisson_stream(HEAVY, rate_rps=2.0, num_requests=24, seed=5))


def _battery(control):
    faults = PerturbationProcess(
        seed=3,
        horizon_s=30.0,
        batteries=(
            (
                "jetson_orin_nx",
                BatteryModel(capacity_j=6.0, floor_j=0.5, idle_w=0.2, busy_w=3.0),
            ),
        ),
    )
    policy = (
        ControlPolicy(interval_s=0.25, concurrency=False, battery_margin=2.0)
        if control
        else None
    )
    return ShardedScheduler(
        cluster=_cluster(),
        num_shards=2,
        max_inflight=4,
        faults=faults,
        retry=RetryPolicy(max_retries=3),
        control=policy,
        trace_level="full" if control else "aggregate",
    ).run(poisson_stream(HEAVY, rate_rps=1.5, num_requests=18, seed=5))


#: Outcome digests of the streams above.
PINNED = {
    "fault_free": "eaad074457267c7c5a0e22ec3bbc13b3f9dee6c22fc0c0ef64b2f1d8146f2217",
    "churn": "14eda4c0667ac7a572c5b4bc6df1cab71913a8d394260e9d7d7ba6955ebe18ac",
    "battery_surprise": "b2d73f4805d47420b2733b3c0791a48e2a8fb84acfe090562e248896f7b8afad",
    "battery_planned": "a157bdb8fa01ffdbee5ee23d3911adb3d12e088a9f69e03286c7bfcbdbc6267c",
}
#: Every busy interval (per station, in record order) and every
#: transfer record of the full-trace fault-free stream.
PINNED_TRACES = "b43f8f028eda724e95235642f05c3266d6efffabbc413630e2424d0a1c847957"

STREAMS = {
    "fault_free": _fault_free,
    "churn": _churn,
    "battery_surprise": lambda: _battery(control=False),
    "battery_planned": lambda: _battery(control=True),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_outcome_digest_is_pinned(name):
    result = STREAMS[name]()
    assert outcome_fingerprint(result) == PINNED[name]


def test_full_trace_records_are_pinned(monkeypatch):
    runtimes = []
    original = runtime_module.SimRuntime.__init__

    def capture(self, *args, **kwargs):
        original(self, *args, **kwargs)
        runtimes.append(self)

    monkeypatch.setattr(runtime_module.SimRuntime, "__init__", capture)
    _fault_free()
    (runtime,) = runtimes
    records = (
        sorted(runtime.busy._intervals.items()),
        runtime.transfer_log._entries,
        sorted(runtime.flops_log._entries),
    )
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == PINNED_TRACES


def test_streams_exercise_the_regimes_they_pin():
    churn = _churn()
    assert churn.failures > 0 and churn.fault_events > 0
    degrades = [
        event.time_s
        for event in CHURN_FAULTS.events(_cluster())
        if event.kind == LINK_DEGRADE and event.time_s < churn.makespan_s
    ]
    assert len(degrades) >= 3
    assert _battery(control=False).failures > 0
    assert _battery(control=True).control.planned_drains == 1


def test_outcome_digest_ignores_only_the_event_count():
    result = _battery(control=True)
    outcome, full = outcome_fingerprint(result), result_fingerprint(result)
    result.sim_events += 1
    assert outcome_fingerprint(result) == outcome
    assert result_fingerprint(result) != full
    result.sim_events -= 1
    result.energy_j += 1e-9
    assert outcome_fingerprint(result) != outcome
