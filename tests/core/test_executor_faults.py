"""Mid-plan device loss: the executor's availability gates (ISSUE 6).

Two regression families:

- A fan-out killed mid-tile by a real :class:`~repro.faults.FaultInjector`
  timeline must surface a structured :class:`DeviceLostError` from the
  executor with no busy-interval overlaps and **zero leaked grants** --
  no station or network calendar is booked past the end of the run.
- A flow abandoned while *queued* for a station or the network
  (generator closed before its reserved hold starts) must hand its
  reservation back -- roll the calendar back exactly and tell the
  planners -- instead of leaving phantom backlog behind.
"""

import pytest

from repro.core.executor import PlanExecutor
from repro.core.plans import (
    ExecutionPlan,
    LOCAL_SINGLE,
    LocalExec,
    MODE_DATA,
    NodeAssignment,
    UnitTask,
)
from repro.faults import DEVICE_LEAVE, DeviceLostError, FaultEvent, FaultInjector
from repro.platform.cluster import build_cluster
from repro.sim.runtime import SimRuntime
from repro.workloads.requests import InferenceRequest

VICTIM = "jetson_orin_nx"


def _data_plan():
    """A leader tile on tx2 plus a remote tile on the victim board."""
    t_local = UnitTask(processor="gpu_pascal", flops_by_class={"conv": 10**9})
    t_remote = UnitTask(processor="gpu_ampere", flops_by_class={"conv": 10**9})
    return ExecutionPlan(
        strategy="test",
        model="tiny_cnn",
        mode=MODE_DATA,
        assignments=(
            NodeAssignment(
                device="jetson_tx2", local=LocalExec(mode=LOCAL_SINGLE, tasks=(t_local,))
            ),
            NodeAssignment(
                device=VICTIM,
                local=LocalExec(mode=LOCAL_SINGLE, tasks=(t_remote,)),
                send_bytes=10**6,
                return_bytes=10**5,
            ),
        ),
        merge_exec=LocalExec(
            mode=LOCAL_SINGLE,
            tasks=(UnitTask(processor="cpu_denver2", flops_by_class={"dense": 10**6}),),
        ),
    )


def _run(events):
    cluster = build_cluster(["jetson_tx2", "jetson_orin_nx"])
    runtime = SimRuntime(cluster)
    injector = FaultInjector(runtime, cluster, events)
    injector.arm()
    executor = PlanExecutor(runtime)
    request = InferenceRequest(request_id=0, model="tiny_cnn")
    outcome = {}

    def driver():
        try:
            outcome["result"] = yield from executor.execute(request, _data_plan())
        except DeviceLostError as lost:
            outcome["lost"] = lost

    runtime.env.process(driver())
    runtime.env.run()
    return runtime, outcome


def _assert_no_leaked_grants(runtime):
    now = runtime.env.now
    for device in runtime.cluster.devices:
        for station in runtime.stations_of(device.name):
            assert station.committed_until <= now, station.key
    assert runtime.network.committed_until <= now


class TestMidPlanDeviceLoss:
    def _victim_window(self):
        """The victim tile's busy window in a clean run."""
        runtime, outcome = _run([])
        assert "result" in outcome  # clean run completes
        intervals = runtime.busy.intervals(f"{VICTIM}/gpu_ampere")
        assert intervals, "plan never reached the victim board"
        return intervals[0].start, intervals[-1].end

    def test_kill_mid_tile_surfaces_structured_error(self):
        start, end = self._victim_window()
        t_kill = (start + end) / 2.0
        runtime, outcome = _run([FaultEvent(time_s=t_kill, kind=DEVICE_LEAVE, target=VICTIM)])
        lost = outcome.get("lost")
        assert isinstance(lost, DeviceLostError), outcome
        assert lost.device == VICTIM
        assert lost.segment  # structured: which gate detected the loss
        assert lost.time_s >= t_kill
        assert "result" not in outcome  # failed, not silently completed

    def test_partial_work_charged_and_no_overlaps(self):
        start, end = self._victim_window()
        runtime, outcome = _run(
            [FaultEvent(time_s=(start + end) / 2.0, kind=DEVICE_LEAVE, target=VICTIM)]
        )
        assert "lost" in outcome
        # Partial work was charged before the failure was detected...
        assert runtime.busy.busy_seconds("jetson_tx2/gpu_pascal") > 0
        # ...and the abort left the recorder consistent.
        runtime.busy.assert_no_overlaps()

    def test_kill_leaves_zero_leaked_grants(self):
        start, end = self._victim_window()
        runtime, outcome = _run(
            [FaultEvent(time_s=(start + end) / 2.0, kind=DEVICE_LEAVE, target=VICTIM)]
        )
        assert "lost" in outcome
        _assert_no_leaked_grants(runtime)

    def test_kill_before_offload_detected_early(self):
        """Losing the board before its tile ever starts still fails the
        plan (at the offload/probe gates), with nothing leaked."""
        runtime, outcome = _run([FaultEvent(time_s=0.0, kind=DEVICE_LEAVE, target=VICTIM)])
        lost = outcome.get("lost")
        assert isinstance(lost, DeviceLostError), outcome
        assert lost.device == VICTIM
        assert runtime.busy.busy_seconds(f"{VICTIM}/gpu_ampere") == 0.0
        _assert_no_leaked_grants(runtime)


class TestAbandonedGrantWaits:
    """Abandoning a flow whose hold is booked but not yet served must
    roll the calendar back exactly and bump the load version, so
    planners stop seeing the backlog."""

    def _station(self):
        cluster = build_cluster(["jetson_tx2", "jetson_orin_nx"])
        runtime = SimRuntime(cluster)
        return runtime, runtime.station("jetson_tx2", "gpu_pascal")

    def test_run_task_abandoned_while_queued(self):
        runtime, station = self._station()
        hog = station.run_overhead(1.0, "hog")
        next(hog)  # booked [0, 1]
        assert station.committed_until == 1.0

        waiter = station.run_task({"conv": 10**9}, label="waiter")
        committed_before = station.committed_until
        next(waiter)  # booked behind the hog
        assert station.committed_until > committed_before
        version_booked = runtime._load_version

        waiter.close()  # GeneratorExit before its hold starts
        assert station.committed_until == committed_before
        assert runtime._load_version > version_booked  # planners see it

        # The last booking abandoned mid-hold: the served part is
        # charged and the calendar ends now.
        runtime.env.run(until=0.25)
        hog.close()
        assert runtime.busy.busy_seconds(station.key) == 0.25
        assert station.committed_until == 0.25

    def test_hold_abandoned_while_queued(self):
        runtime, station = self._station()
        hog = station.run_overhead(1.0, "hog")
        next(hog)  # booked [0, 1]
        waiter = station.run_overhead(0.5, "waiter")
        next(waiter)  # booked [1, 1.5]
        late = station.run_overhead(0.25, "late")
        next(late)  # booked [1.5, 1.75]
        # Not the last booking: the slot stays on the calendar as idle
        # time, and the later hold keeps its place.
        waiter.close()
        assert station.committed_until == 1.75
        late.close()
        assert station.committed_until == 1.5
        assert runtime.busy.busy_seconds(station.key) == 0.0

    def test_transmit_abandoned_while_queued(self):
        cluster = build_cluster(["jetson_tx2", "jetson_orin_nx"])
        runtime = SimRuntime(cluster)
        medium = runtime.network

        first = medium.transmit("jetson_tx2", "jetson_orin_nx", 10**6, tag="hog")
        next(first)  # booked from t=0
        first_end = medium.committed_until
        assert first_end > 0.0

        second = medium.transmit("jetson_orin_nx", "jetson_tx2", 10**6, tag="wait")
        next(second)  # booked behind the hog
        assert medium.committed_until > first_end

        second.close()
        assert medium.committed_until == first_end  # handed back exactly
        first.close()
        assert medium.committed_until == 0.0
        assert runtime.transfer_log.count == 0  # nothing was delivered
