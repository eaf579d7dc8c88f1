"""Plan executor: drives an :class:`ExecutionPlan` through the
discrete-event simulator, walking the scheduler FSM of Fig. 4.

The executor is strategy-agnostic: HiDP plans and baseline plans run
through the identical machinery, so measured differences come only
from the decisions, never from the harness.

The FSM runs from the plan's own physical leader
(:attr:`~repro.core.plans.ExecutionPlan.leader`): the probe
round-trips, the offload fan-out, the result merge and the
``dse_overhead_s`` scheduler-CPU charge all land on that device, so a
sharded scheduler whose shards elect distinct leaders genuinely
spreads controller work across boards.  Plans without a recorded
leader (legacy) fall back to the cluster's ``devices[0]``,
byte-identically.

Timeline of one request (leader FSM):

1. ``analyze``        -- availability probe round-trips to every node.
2. ``explore``        -- DSE overhead charged as a busy interval on the
                          leader's scheduling CPU (the paper's ~15 ms).
3. ``global_offload`` -- workload payloads leave over the WLAN.
4. ``local_map``      -- per-node local DSE overhead.
5. ``execute``        -- compute tasks queue on processor stations;
                          intermediate tensors move; results gather.
6. back to ``global_offload`` for the merge, then ``analyze``.

Stations and the WLAN are calendars (see :mod:`repro.sim.runtime`):
the executor books every hold through their ``reserve`` and never
claims a resource or writes a calendar itself, so the hold protocol has
a single implementation.  A sequential charge or transfer is one
``yield from`` :meth:`~repro.sim.runtime.ProcessorStation.hold` /
:meth:`~repro.sim.runtime.NetworkChannel.transmit`.  Fan-outs are not
processes: the availability probe (:class:`_Probe`) and a local exec's
tile or stage fan-outs (:class:`_FanOut`) are each one flow that books
its children from event callbacks at their arrival instants, so a
request runs as a single process.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, List, Optional

from repro.comm.network import STATUS_PACKET_BYTES
from repro.faults import DeviceLostError
from repro.core.fsm import (
    FSMTrace,
    STATE_ANALYZE,
    STATE_EXECUTE,
    STATE_EXPLORE,
    STATE_MAP,
    STATE_OFFLOAD,
)
from repro.core.memo import Memo, Ref
from repro.core.plans import (
    ExecutionPlan,
    LOCAL_DATA,
    LOCAL_PIPELINE,
    LOCAL_SINGLE,
    LOCAL_STAGED,
    LocalExec,
    MODE_DATA,
    MODE_LOCAL,
    MODE_MODEL,
    NodeAssignment,
)
from repro.metrics.results import InferenceResult
from repro.platform.processor import KIND_CPU
from repro.sim.engine import Event, Timeout
from repro.sim.runtime import SimRuntime
from repro.sim.trace import TRACE_FULL
from repro.workloads.requests import InferenceRequest

#: Local DSE overhead charged on each node that runs a local search.
LOCAL_MAP_OVERHEAD_S = 0.002
#: Result merge overhead on the leader.
MERGE_OVERHEAD_S = 0.001

#: A cooperative-preemption checkpoint: a generator function yielded
#: from at plan-segment boundaries.  It yields nothing when execution
#: may continue, or waits on whatever events (slot re-grants...) must
#: resolve before the next segment starts.
Checkpoint = Callable[[], Generator[Event, None, None]]


class _TaskSpec:
    """One local task, compiled to flat constants.

    Everything a task flow touches per execution -- the station, the
    durations and the record arguments -- resolved once per compile so
    the per-serve generators do no graph walks, no dict sums and no
    attribute chains.
    """

    __slots__ = (
        "station",
        "in_s",
        "duration",
        "out_s",
        "label",
        "total_flops",
        "device",
        "processor",
    )

    def __init__(self, station, in_s, duration, out_s, label, total_flops):
        self.station = station
        self.in_s = in_s
        self.duration = duration
        self.out_s = out_s
        self.label = label
        self.total_flops = total_flops
        self.device = station.device.name
        self.processor = station.processor.name


class _CompiledLocal:
    """A :class:`LocalExec` compiled against one runtime's stations."""

    __slots__ = ("mode", "specs", "stages")

    def __init__(self, mode, specs, stages=None):
        self.mode = mode
        self.specs = specs
        self.stages = stages


class _FanOut:
    """The tile or stage fan-outs of one local exec, driven as a single
    flow.

    A child is no process, only scheduled instants: its input hand-off
    arrives at ``stage start + in_s`` and books the station there (so
    holds other flows booked in between keep their FIFO places), and
    the hold's end records the busy interval and the FLOPs.  Station
    calendars never move once booked, so when the last child of a
    stage has booked, the stage's finish -- the latest ``end + out_s``
    -- is known: the next stage is launched from it directly, and
    ``done`` is scheduled once, at the last stage's finish.

    ``gate`` (fault injection armed) is called at each later stage
    boundary, which then costs one event; a
    :class:`~repro.faults.DeviceLostError` it returns ends the flow and
    becomes ``done``'s value.
    """

    __slots__ = ("env", "flops_log", "stages", "gate", "index", "pending", "finish", "done")

    def __init__(self, env, flops_log, stages, gate):
        self.env = env
        self.flops_log = flops_log
        self.stages = stages
        self.gate = gate
        self.index = 0
        self.done = Event(env)
        self._launch(env.now)

    def _launch(self, at):
        stage = self.stages[self.index]
        self.pending = len(stage)
        self.finish = at
        env = self.env
        arrive = self._arrive
        for spec in stage:
            env.timeout_at(at + spec.in_s, spec).callbacks = arrive
        if not stage:
            self._next()

    def _arrive(self, event):
        spec = event._value
        start, end = spec.station.reserve(spec.duration)
        self.env.timeout_at(end, (spec, start)).callbacks = self._complete
        finish = end + spec.out_s
        if finish > self.finish:
            self.finish = finish
        self.pending -= 1
        if self.pending == 0:
            self._next()

    def _next(self):
        self.index += 1
        if self.index == len(self.stages):
            self.env.schedule_at(self.done, self.finish)
        elif self.gate is None:
            self._launch(self.finish)
        else:
            self.env.timeout_at(self.finish).callbacks = self._boundary

    def _boundary(self, event):
        lost = self.gate()
        if lost is not None:
            self.done.succeed(lost)
        else:
            self._launch(self.env.now)

    def _complete(self, event):
        spec, start = event._value
        end = self.env.now
        spec.station.record(start, end, spec.label)
        self.flops_log.record(end, spec.total_flops, spec.device, spec.processor, spec.label)


class _Probe:
    """The availability status round trips (Eq. 4), driven as a single
    flow: every request leg is booked at once, in device order; each
    reply leg is booked when its request is delivered; ``done`` fires
    on the last reply."""

    __slots__ = ("channel", "pending", "done")

    def __init__(self, env, channel, leader, targets):
        self.channel = channel
        self.pending = len(targets)
        self.done = Event(env)
        on_request = self._on_request
        for dst in targets:
            leg = channel.reserve(leader, dst, STATUS_PACKET_BYTES, "status_request")
            leg.event.callbacks = on_request

    def _on_request(self, event):
        request = event._value
        channel = self.channel
        channel.deliver(request)
        reply = channel.reserve(request.dst, request.src, STATUS_PACKET_BYTES, "status_reply")
        reply.event.callbacks = self._on_reply

    def _on_reply(self, event):
        self.channel.deliver(event._value)
        self.pending -= 1
        if self.pending == 0:
            self.done.succeed()


class PlanExecutor:
    """Executes plans on a :class:`~repro.sim.runtime.SimRuntime`.

    ``charge_explore`` controls whether each request's global DSE
    overhead (``plan.dse_overhead_s``) is charged on the leader's
    scheduler CPU inside :meth:`execute`.  Serving schedulers that
    charge batched planning time at the dispatcher instead (one sweep
    amortised over the whole backlog) disable it to avoid paying the
    explore cost twice.
    """

    def __init__(
        self,
        runtime: SimRuntime,
        charge_local_map: bool = True,
        charge_explore: bool = True,
    ):
        self.runtime = runtime
        self.charge_local_map = charge_local_map
        self.charge_explore = charge_explore
        # FSM traces are per-request artefacts; aggregate-trace runs
        # skip them (results carry empty traces) like every other
        # per-entry record.
        self._record_fsm = runtime.trace_level == TRACE_FULL
        # Compiled local execs (see _compiled_local), stored only on the
        # simulation fast path (``REPRO_SIM_FASTPATH``): the reference
        # configuration runs the same flows but compiles every local per
        # execution, so the hatch matrix pins the memo against a fresh
        # compile.
        self._fast = runtime.env._fast
        self._compiled = Memo(self.COMPILED_MAX)
        # The station hosting each device's middleware controller: the
        # first CPU, else the first processor.  The cluster's processor
        # layout is fixed for the lifetime of a run.
        self._scheduler_stations = {
            device.name: runtime.station(
                device.name,
                next(
                    (proc for proc in device.processors if proc.kind == KIND_CPU),
                    device.processors[0],
                ).name,
            )
            for device in runtime.cluster.devices
        }

    #: Bound on the compiled-local memo (a serving process cycles
    #: through at most the plan cache's working set of locals).
    COMPILED_MAX = 16384

    # Helpers ----------------------------------------------------------------

    def _busy(self, device_name: str, seconds: float, label: str):
        """Charge controller overhead as busy time on the scheduler CPU.

        The CPU resource is held for the full overhead (an overhead
        shorter than the processor's setup time charges exactly the
        overhead, never the setup floor), so concurrent requests
        serialise on the controller instead of overlapping.

        Returns the scheduler station's
        :meth:`~repro.sim.runtime.ProcessorStation.hold` for the caller
        to ``yield from`` -- or an empty iterable when
        ``seconds <= 0``, which charges nothing and schedules no event.
        A plain function, so the caller's flow delegates straight to
        the hold.
        """
        if seconds <= 0:
            return ()
        return self._scheduler_stations[device_name].hold(seconds, label)

    def charge_overhead(self, device_name: str, seconds: float, label: str):
        """Process: charge controller time on a device's scheduler CPU.

        Public entry point for schedulers that account planning work
        outside :meth:`execute` (e.g. batched co-planning charged once
        per backlog at the dispatcher); ``yield from`` the result.
        Negative or non-finite ``seconds`` raise :class:`ValueError`
        and a device outside the cluster raises :class:`KeyError` here,
        at the boundary, rather than as a bad timeout inside the engine
        or a silently dropped charge.
        """
        if not math.isfinite(seconds) or seconds < 0:
            raise ValueError(f"overhead seconds must be finite and >= 0, got {seconds!r}")
        if device_name not in self._scheduler_stations:
            raise KeyError(
                f"no device {device_name!r} in cluster {self.runtime.cluster.name!r}"
            )
        return self._busy(device_name, seconds, label)

    def _pause_point(self, checkpoint: Optional[Checkpoint]) -> Generator[Event, None, None]:
        """Yield to the preemption checkpoint at a segment boundary.

        With no checkpoint installed this adds no events at all, so
        legacy runs stay byte-identical.
        """
        if checkpoint is not None:
            yield from checkpoint()

    def _check(self, faults, devices, segment: str) -> None:
        """Availability gate: fail the segment when a plan device left.

        Only called with fault injection armed (``runtime.faults`` set);
        raising :class:`~repro.faults.DeviceLostError` is the structured
        failed-segment event the recovery contract starts from.  The
        gates sit between holds, never inside one, so failing a segment
        leaves no booked-but-unserved hold and orphans no busy interval.
        """
        for name in devices:
            if not faults.device_ok(name):
                raise DeviceLostError(name, segment, self.runtime.env.now)

    def _probe(self, leader: str, faults=None) -> Generator[Event, None, None]:
        """Availability status round trips (Eq. 4) to every other node.

        With fault injection armed, nodes currently out of the cluster
        are skipped -- the probe *is* the availability detection, it
        cannot round-trip to a device that left.
        """
        targets = [
            device.name
            for device in self.runtime.cluster.devices
            if device.name != leader
            and (faults is None or faults.device_ok(device.name))
        ]
        if targets:
            yield _Probe(self.runtime.env, self.runtime.network, leader, targets).done

    # Local execution ----------------------------------------------------------

    def _run_local(
        self, device_name: str, local: LocalExec, label: str, faults=None
    ) -> Generator[Event, None, None]:
        """Run one node's local execution (all four local modes).

        Executes the compiled :class:`_CompiledLocal`: flat per-task
        constants, each sequential task one
        :meth:`~repro.sim.runtime.ProcessorStation.hold` away from this
        flow, all tile or stage fan-outs one :class:`_FanOut`.

        Fault semantics: availability is gated at each segment start
        -- before each fan-out stage (the first in this frame, later
        ones at the fan-out's stage boundaries) and before each
        sequential task -- and a loss raises
        :class:`~repro.faults.DeviceLostError` here.  A stage that
        started runs to completion and is charged.
        """
        compiled = self._compiled_local(device_name, local, label)
        runtime = self.runtime
        env = runtime.env
        flops_log = runtime.flops_log
        mode = compiled.mode
        if mode == LOCAL_DATA or mode == LOCAL_STAGED:
            segment = "tile" if mode == LOCAL_DATA else "stage"
            gate = None
            if faults is not None:
                self._check(faults, (device_name,), segment)

                def gate():
                    if faults.device_ok(device_name):
                        return None
                    return DeviceLostError(device_name, segment, env.now)

            lost = yield _FanOut(env, flops_log, compiled.stages, gate).done
            if lost is not None:
                raise lost
        else:
            segment = "execute"
        # The data-mode tail (if any), or the single / pipeline task list.
        for spec in compiled.specs:
            if faults is not None:
                self._check(faults, (device_name,), segment)
            yield Timeout(env, spec.in_s)
            end = yield from spec.station.hold(spec.duration, spec.label)
            flops_log.record(end, spec.total_flops, spec.device, spec.processor, spec.label)

    def _compiled_local(self, device_name: str, local: LocalExec, label: str):
        """The compiled form of a local exec, memoised per run on the
        simulation fast path.

        Serving runs execute the same cached plan's locals thousands of
        times; resolving stations, durations and transfer times once
        per (local, device, label) removes every per-serve
        recomputation.  The local is keyed by identity (a
        :class:`~repro.core.memo.Ref`, which also pins it), so an equal
        but distinct local compiles afresh.
        """
        key = (Ref(local), device_name, label)
        if self._fast:
            compiled = self._compiled.get(key)
            if compiled is not None:
                return compiled
        runtime = self.runtime

        def spec_of(task, with_out: bool) -> _TaskSpec:
            station = runtime.station(device_name, task.processor)
            device = station.device
            return _TaskSpec(
                station,
                device.transfer_seconds(task.input_bytes),
                station.processor.task_seconds(
                    task.flops_by_class, num_ops=task.num_ops, pinned=task.pinned
                ),
                device.transfer_seconds(task.output_bytes) if with_out else 0.0,
                task.label or label,
                sum(task.flops_by_class.values()),
            )

        mode = local.mode
        if mode == LOCAL_DATA:
            compiled = _CompiledLocal(
                mode,
                specs=[spec_of(local.tail, False)] if local.tail is not None else [],
                stages=[[spec_of(task, True) for task in local.tasks]],
            )
        elif mode == LOCAL_STAGED:
            compiled = _CompiledLocal(
                mode,
                specs=[],
                stages=[[spec_of(task, True) for task in stage] for stage in local.stages],
            )
        elif mode == LOCAL_SINGLE:
            compiled = _CompiledLocal(mode, specs=[spec_of(local.tasks[0], False)])
        else:  # pipeline
            compiled = _CompiledLocal(
                mode, specs=[spec_of(task, False) for task in local.tasks]
            )
        if self._fast:
            self._compiled.put(key, compiled)
        return compiled

    def _map_overhead(self, device_name: str, local: LocalExec):
        """The follower-side local DSE charge (Fig. 4 'Local: Map'), as
        a hold to ``yield from`` (see :meth:`_busy`)."""
        if self.charge_local_map and len(local.tasks) > 1:
            return self._busy(device_name, LOCAL_MAP_OVERHEAD_S, "local_dse")
        return ()

    # Global modes ---------------------------------------------------------------

    def _run_data_assignment(
        self,
        leader: str,
        assignment: NodeAssignment,
        trace: Optional[FSMTrace],
        faults=None,
    ) -> Generator[Event, None, None]:
        env = self.runtime.env
        device = assignment.device
        channel = self.runtime.network
        if device != leader:
            if faults is not None:
                self._check(faults, (device,), "offload")
            yield from channel.transmit(leader, device, assignment.send_bytes, "workload")
        if trace is not None:
            trace.enter(env.now, STATE_MAP)
        yield from self._map_overhead(device, assignment.local)
        if trace is not None:
            trace.enter(env.now, STATE_EXECUTE)
        yield from self._run_local(device, assignment.local, assignment.label, faults)
        if device != leader:
            if faults is not None:
                self._check(faults, (device,), "result")
            yield from channel.transmit(device, leader, assignment.return_bytes, "result")
        if trace is not None:
            trace.enter(env.now, STATE_ANALYZE)

    def _guarded_assignment(
        self,
        leader: str,
        assignment: NodeAssignment,
        trace: Optional[FSMTrace],
        faults,
    ) -> Generator[Event, None, None]:
        """Child-process wrapper: failures become the process *value*.

        A raise inside a spawned child would crash the event loop, so
        the sentinel pattern applies -- catch, return, and let the
        fan-out parent re-raise after every sibling has drained.
        """
        try:
            yield from self._run_data_assignment(leader, assignment, trace, faults)
        except DeviceLostError as lost:
            return lost

    def _execute_data(
        self, leader: str, plan: ExecutionPlan, traces: List[FSMTrace], faults=None
    ) -> Generator[Event, None, None]:
        env = self.runtime.env
        children = []
        for assignment in plan.assignments:
            trace = None
            if self._record_fsm and assignment.device != leader:
                trace = FSMTrace(role="follower", node=assignment.device)
                trace.enter(env.now, STATE_ANALYZE)
                traces.append(trace)
            if faults is not None:
                children.append(
                    env.process(
                        self._guarded_assignment(leader, assignment, trace, faults)
                    )
                )
            else:
                children.append(
                    env.process(self._run_data_assignment(leader, assignment, trace))
                )
        values = yield env.all_of(children)
        if faults is not None:
            for value in values:
                if isinstance(value, DeviceLostError):
                    raise value

    def _execute_model(
        self,
        leader: str,
        plan: ExecutionPlan,
        traces: List[FSMTrace],
        checkpoint: Optional[Checkpoint] = None,
        faults=None,
    ) -> Generator[Event, None, None]:
        env = self.runtime.env
        previous = leader
        for index, assignment in enumerate(plan.assignments):
            if index > 0:
                # Pipeline-stage hand-off: a natural segment boundary.
                yield from self._pause_point(checkpoint)
            if faults is not None:
                self._check(faults, (previous, assignment.device), "stage")
            if assignment.device != previous:
                yield from self.runtime.network.transmit(
                    previous, assignment.device, assignment.send_bytes, tag="block"
                )
            trace = None
            if self._record_fsm and assignment.device != leader:
                trace = FSMTrace(role="follower", node=assignment.device)
                trace.enter(env.now, STATE_ANALYZE)
                trace.enter(env.now, STATE_MAP)
                traces.append(trace)
            yield from self._map_overhead(assignment.device, assignment.local)
            if trace is not None:
                trace.enter(env.now, STATE_EXECUTE)
            yield from self._run_local(
                assignment.device, assignment.local, assignment.label, faults
            )
            if trace is not None:
                trace.enter(env.now, STATE_ANALYZE)
            previous = assignment.device
        if previous != leader:
            if faults is not None:
                self._check(faults, (previous,), "result")
            yield from self.runtime.network.transmit(
                previous, leader, plan.assignments[-1].return_bytes, tag="result"
            )

    # Entry point -------------------------------------------------------------

    def execute(
        self,
        request: InferenceRequest,
        plan: ExecutionPlan,
        checkpoint: Optional[Checkpoint] = None,
    ) -> Generator[Event, None, InferenceResult]:
        """Process: run one request's plan; returns its result record.

        ``checkpoint`` installs a cooperative-preemption hook yielded
        from at segment boundaries (after the availability probe, after
        explore, between model-parallel pipeline stages, and before the
        final merge).  Data-parallel tile fan-outs run to completion --
        their children execute concurrently, so there is no coherent
        mid-flight boundary to pause at.

        With fault injection armed (``runtime.faults``), availability
        gates at every segment boundary turn a mid-plan device loss into
        :class:`~repro.faults.DeviceLostError`: partial work already on
        the timeline stays charged, no calendar keeps a hold booked past
        the failure (the gates sit between holds), and recovery is the
        *scheduler's* decision.
        """
        env = self.runtime.env
        faults = self.runtime.faults
        if faults is not None and not faults.armed:
            faults = None
        leader = plan.leader if plan.leader is not None else self.runtime.cluster.leader.name
        submitted = env.now
        if faults is not None:
            self._check(faults, (leader,), "dispatch")
        record_fsm = self._record_fsm
        traces: List[FSMTrace] = []
        trace: Optional[FSMTrace] = None
        if record_fsm:
            trace = FSMTrace(role="leader", node=leader)
            traces.append(trace)
            trace.enter(env.now, STATE_ANALYZE)
        yield from self._probe(leader, faults)
        if faults is not None:
            self._check(faults, (leader,) + plan.devices, "probe")
        started = env.now
        yield from self._pause_point(checkpoint)

        if record_fsm:
            trace.enter(env.now, STATE_EXPLORE)
        if self.charge_explore:
            yield from self._busy(leader, plan.dse_overhead_s, "global_dse")
        yield from self._pause_point(checkpoint)
        if faults is not None:
            self._check(faults, (leader,) + plan.devices, "explore")

        if record_fsm:
            trace.enter(env.now, STATE_OFFLOAD)
        if plan.mode == MODE_DATA:
            if record_fsm:
                trace.enter(env.now, STATE_MAP)
                trace.enter(env.now, STATE_EXECUTE)
            yield from self._execute_data(leader, plan, traces, faults)
        elif plan.mode == MODE_MODEL:
            if record_fsm:
                trace.enter(env.now, STATE_MAP)
                trace.enter(env.now, STATE_EXECUTE)
            yield from self._execute_model(leader, plan, traces, checkpoint, faults)
        else:  # MODE_LOCAL
            assignment = plan.assignments[0]
            if record_fsm:
                trace.enter(env.now, STATE_MAP)
            yield from self._map_overhead(leader, assignment.local)
            if record_fsm:
                trace.enter(env.now, STATE_EXECUTE)
            yield from self._run_local(leader, assignment.local, assignment.label, faults)

        yield from self._pause_point(checkpoint)
        if faults is not None:
            self._check(faults, (leader,), "merge")
        if record_fsm:
            trace.enter(env.now, STATE_OFFLOAD)  # gather & merge
        if plan.merge_exec is not None:
            yield from self._run_local(leader, plan.merge_exec, "merge")
        yield from self._busy(leader, MERGE_OVERHEAD_S, "merge")
        if record_fsm:
            trace.enter(env.now, STATE_ANALYZE)

        return InferenceResult(
            request_id=request.request_id,
            model=request.model,
            strategy=plan.strategy,
            submitted_s=submitted,
            started_s=started,
            completed_s=env.now,
            plan_mode=plan.mode,
            devices=plan.devices,
            traces=tuple(traces),
        )
