"""Simulation runtime: binds platform objects to the event engine.

One :class:`SimRuntime` per experiment run.  Every processor of every
device becomes a FIFO-served compute station; the wireless LAN becomes
a single shared half-duplex channel.  All contention effects -- a GPU
queueing two tiles, two nodes fighting for the air -- emerge from them.

Both are capacity-1 FIFOs, so neither queues through a resource: the
end of the last booked hold (``committed_until``) *is* the calendar.  A
hold is reserved at ``max(committed_until, now)``, wakes its flow once
at the end and records its busy interval then -- the same start and end,
bit for bit, as request -> grant -> timeout -> release, for one event
instead of three.  A DVFS throttle stretches a hold when it is booked;
a link degradation re-plans the channel legs it can still affect (see
:class:`NetworkChannel`).

``trace_level`` selects how much the run records
(:data:`~repro.sim.trace.TRACE_FULL` materialises every busy interval,
FLOPs completion and transfer exactly as the seed runtime did;
:data:`~repro.sim.trace.TRACE_AGGREGATE` keeps O(1) streaming totals
for large-scale serving streams).  The simulated event schedule is
identical either way -- recording never schedules events.

A load snapshot is a pure function of the stations' committed backlogs
and the clock, so it is recomputed on every call; the runtime memoises
nothing.  ``_load_version`` counts commitments, so a caller that reads
the load repeatedly can key its own memo on ``(now, _load_version)``
(the sharded dispatcher does, on the engine fast path).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, Mapping, Optional, Tuple

from repro.dnn.layers import LAYER_CLASSES
from repro.platform.cluster import Cluster
from repro.platform.device import Device
from repro.platform.power import DVFSThrottle
from repro.platform.processor import Processor
from repro.sim.engine import Environment, Event, SimulationError
from repro.sim.trace import (
    TRACE_FULL,
    BusyRecorder,
    FlopsLog,
    TransferLog,
    check_trace_level,
)

_INF = float("inf")

#: Load-snapshot reductions over a device's stations.
LOAD_VIEW_MIN = "min"
LOAD_VIEW_WEIGHTED = "weighted"
LOAD_VIEWS = (LOAD_VIEW_MIN, LOAD_VIEW_WEIGHTED)


class ProcessorStation:
    """A processor as a FIFO calendar of holds, with busy-interval
    recording."""

    def __init__(
        self,
        env: Environment,
        device: Device,
        processor: Processor,
        busy: BusyRecorder,
        flops_log: FlopsLog,
        runtime: Optional["SimRuntime"] = None,
    ):
        self.env = env
        self.device = device
        self.processor = processor
        self._busy = busy
        self._flops_log = flops_log
        self._runtime = runtime
        self.key = BusyRecorder.key(device.name, processor.name)
        #: Aggregate compute rate over all layer classes; the station's
        #: weight in the ``"weighted"`` load view (hoisted: rates are
        #: immutable and the snapshot path is hot).
        self.compute_weight = sum(processor.rate(cls) for cls in LAYER_CLASSES)
        #: End of the last reserved hold: the calendar of a capacity-1
        #: FIFO.  Planners read it as the backlog of in-flight requests.
        self.committed_until = 0.0
        #: Time-varying DVFS slowdown (fault injection); factor 1.0 --
        #: the permanent state of fault-free runs -- is skipped on the
        #: hot path, so healthy schedules stay byte-identical.
        self.throttle = DVFSThrottle()

    @property
    def backlog_seconds(self) -> float:
        """Outstanding committed work on this processor."""
        return max(0.0, self.committed_until - self.env.now)

    def reserve(self, duration: float) -> Tuple[float, float]:
        """Book the next ``duration`` seconds of the calendar and return
        the hold's ``(start, end)``.

        A capacity-1 FIFO serves a hold from the moment the previous one
        ends, so the hold starts at ``max(committed_until, now)`` -- the
        very instant a request/grant/release queue would grant it.  The
        DVFS factor in force at booking stretches the hold, so a booked
        hold never moves.  The caller records the interval with
        :meth:`record` when ``end`` arrives.
        """
        if not (0.0 <= duration < _INF):
            raise SimulationError(f"hold duration must be finite and >= 0, got {duration!r}")
        factor = self.throttle.factor
        if factor != 1.0:
            duration = duration * factor
        committed = self.committed_until
        now = self.env.now
        start = committed if committed > now else now
        end = start + duration
        self.committed_until = end
        runtime = self._runtime
        if runtime is not None:
            runtime._load_version += 1
        return start, end

    def unreserve(self, start: float, end: float, label: str) -> None:
        """Give back a hold abandoned before its ``end``.

        Work already served is charged.  If no later hold was booked,
        the calendar rolls back to where the abandoned hold stopped, so
        an aborted plan leaves no phantom backlog; otherwise the slot
        stays on the calendar as idle time.
        """
        now = self.env.now
        if now > start:
            self._busy.record(self.key, start, now, label)
        if self.committed_until == end:
            self.committed_until = start if start > now else now
            runtime = self._runtime
            if runtime is not None:
                runtime._load_version += 1

    def record(self, start: float, end: float, label: str) -> None:
        """Record a finished hold's busy interval (called at ``end``:
        mid-run readers such as the battery sampler see only work that
        has completed)."""
        self._busy.record(self.key, start, end, label)

    def hold(self, duration: float, label: str) -> Generator[Event, None, float]:
        """Process: reserve ``duration`` on the calendar, wake once at
        its end, record the interval.  Returns the completion time.

        The executor's compute tasks and controller overheads ``yield
        from`` it directly; tile fan-outs drive :meth:`reserve` and
        :meth:`record` from event callbacks instead.  Either way a hold
        costs one scheduled event.
        """
        start, end = self.reserve(duration)
        try:
            yield self.env.timeout_at(end)
        except BaseException:
            # Abandoned (the flow around us unwound).
            self.unreserve(start, end, label)
            raise
        self.record(start, end, label)
        return end

    def run_task(
        self,
        flops_by_class: Mapping[str, int],
        label: str = "",
        pinned: bool = True,
        num_ops: int = 0,
        duration: Optional[float] = None,
        total_flops: Optional[int] = None,
    ) -> Generator[Event, None, float]:
        """Process: queue for the processor, compute, record.  Returns
        the completion time.

        ``duration`` / ``total_flops`` short-circuit the task-seconds
        model and the FLOPs sum for callers that memoise them per
        immutable task (they must equal what ``processor.task_seconds``
        / ``sum(flops_by_class.values())`` would return).
        """
        if duration is None:
            duration = self.processor.task_seconds(
                flops_by_class, num_ops=num_ops, pinned=pinned
            )
        end = yield from self.hold(duration, label)
        if total_flops is None:
            total_flops = sum(flops_by_class.values())
        self._flops_log.record(
            end, total_flops, self.device.name, self.processor.name, label
        )
        return end

    def run_overhead(self, seconds: float, label: str = "") -> Generator[Event, None, float]:
        """Process: hold the processor busy for a fixed overhead.

        Controller work (DSE, result merge) occupies the scheduler CPU
        for exactly ``seconds``: the hold is booked for the full
        duration (so concurrent requests queue rather than overlap) and
        ``committed_until`` sees it like any compute task.  Returns the
        completion time.
        """
        if seconds <= 0:
            return self.env.now
        return (yield from self.hold(seconds, label))


class Transfer:
    """One reserved leg on the :class:`NetworkChannel` calendar.

    ``event`` fires at ``end`` with the transfer as its value.  Link
    degradation re-plans a leg that has not finished serialising, so
    the times (and ``event``) may move until ``hold_end`` has passed.
    """

    __slots__ = ("src", "dst", "size_bytes", "tag", "requested", "start", "hold_end", "end", "event")

    def __init__(self, src, dst, size_bytes, tag, requested, start, hold_end, end):
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.tag = tag
        self.requested = requested
        self.start = start
        self.hold_end = hold_end
        self.end = end
        self.event = None


class NetworkChannel:
    """The shared wireless medium: one transfer at a time, as a FIFO
    calendar of serialisation holds.

    A leg occupies the medium for its serialisation time, from
    ``max(committed_until, now)``; the propagation latency elapses
    after the medium is free.  Fault injection can :meth:`degrade` the
    medium transiently: a slowdown factor divides the effective
    bandwidth and multiplies the propagation latency until
    :meth:`restore`.  Concurrent episodes stack multiplicatively; with
    none active the hoisted constants are reset to *exactly* the base
    values, so fault-free transfers stay byte-identical.

    A queue reads the bandwidth when a leg starts serialising and the
    latency when it stops, so every change re-plans the legs that have
    not started (from their request times, in FIFO order) and the
    latency of the leg still serialising.
    """

    def __init__(self, env: Environment, cluster: Cluster, log: TransferLog):
        self.env = env
        self.cluster = cluster
        self._log = log
        #: End of the last reserved serialisation hold.
        self.committed_until = 0.0
        #: Reserved legs whose serialisation has not ended, FIFO order
        #: (the only ones a degradation can still move).
        self._open: Deque[Transfer] = deque()
        # Network constants, hoisted off the per-transfer path.
        self._bandwidth_bytes_s = cluster.network.bandwidth_bytes_s
        self._latency_s = cluster.network.latency_s
        #: Base (healthy) values and the active degradation episodes.
        self._base_bandwidth_bytes_s = self._bandwidth_bytes_s
        self._base_latency_s = self._latency_s
        self._slowdowns: list = []

    def degrade(self, factor: float) -> None:
        """Start a degradation episode slowing the medium by ``factor``."""
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self._slowdowns.append(factor)
        self._recompute()

    def restore(self, factor: float) -> None:
        """End one episode previously applied with the same ``factor``."""
        self._slowdowns.remove(factor)
        self._recompute()

    def _recompute(self) -> None:
        if not self._slowdowns:
            self._bandwidth_bytes_s = self._base_bandwidth_bytes_s
            self._latency_s = self._base_latency_s
        else:
            slowdown = 1.0
            for factor in self._slowdowns:
                slowdown *= factor
            self._bandwidth_bytes_s = self._base_bandwidth_bytes_s / slowdown
            self._latency_s = self._base_latency_s * slowdown
        self._replan()

    def _replan(self) -> None:
        """Re-time the open legs under the current link constants."""
        env = self.env
        now = env.now
        bandwidth = self._bandwidth_bytes_s
        latency = self._latency_s
        previous_end = None
        for leg in self._prune(now):
            if leg.start < now:
                # Serialising: its bandwidth is fixed, its latency not.
                hold_end = leg.hold_end
            else:
                if previous_end is not None:
                    requested = leg.requested
                    leg.start = previous_end if previous_end > requested else requested
                hold_end = leg.hold_end = leg.start + leg.size_bytes / bandwidth
            previous_end = hold_end
            end = hold_end + latency
            if end != leg.end:
                leg.end = end
                moved = env.timeout_at(end, leg)
                moved.callbacks, leg.event.callbacks = leg.event.callbacks, None
                leg.event = moved
        if previous_end is not None:
            self.committed_until = previous_end

    def _prune(self, now: float) -> Deque[Transfer]:
        """Drop legs whose serialisation is over; return the rest."""
        legs = self._open
        while legs and legs[0].hold_end <= now:
            legs.popleft()
        return legs

    def reserve(self, src: str, dst: str, size_bytes: int, tag: str = "") -> Transfer:
        """Book the next serialisation hold for one leg.  Its ``event``
        fires on delivery; hand the leg to :meth:`deliver` then."""
        now = self.env.now
        committed = self.committed_until
        start = committed if committed > now else now
        serialisation = size_bytes / self._bandwidth_bytes_s
        if not (0.0 <= serialisation < _INF):
            raise SimulationError(f"leg size must be finite and >= 0, got {size_bytes!r}")
        hold_end = start + serialisation
        self.committed_until = hold_end
        leg = Transfer(
            src, dst, size_bytes, tag, now, start, hold_end, hold_end + self._latency_s
        )
        leg.event = self.env.timeout_at(leg.end, leg)
        self._prune(now).append(leg)
        return leg

    def unreserve(self, leg: Transfer) -> None:
        """Give back a leg abandoned before delivery: if it is the last
        one booked, the medium's calendar rolls back to where it
        stopped serialising."""
        now = self.env.now
        legs = self._open
        if legs and legs[-1] is leg and now < leg.hold_end:
            legs.pop()
            self.committed_until = leg.start if leg.start > now else now

    def deliver(self, leg: Transfer) -> None:
        """Log a delivered leg (called at ``leg.end``)."""
        self._log.record(
            leg.start,
            leg.end,
            leg.size_bytes,
            leg.src,
            leg.dst,
            leg.tag,
            hold_end=leg.hold_end,
        )

    def transmit(
        self, src: str, dst: str, size_bytes: int, tag: str = ""
    ) -> Generator[Event, None, None]:
        """Process: reserve one leg, wake on its delivery, log it.

        Every executor transfer that waits for its own delivery
        (offload, pipeline block, result) is one ``yield from`` of it;
        probe fan-outs drive :meth:`reserve` / :meth:`deliver` from
        event callbacks.
        """
        if src == dst:
            return
        leg = self.reserve(src, dst, size_bytes, tag)
        try:
            yield leg.event
        except BaseException:
            # Abandoned while queued or in flight.
            self.unreserve(leg)
            raise
        self.deliver(leg)


class RuntimeSnapshot:
    """A paused run's engine state plus the runtime's load version.

    Wraps the engine's :class:`~repro.sim.engine.EngineSnapshot` and the
    commitment counter ``_load_version``; valid under the same window (nothing
    processed since capture).  Produced by :meth:`SimRuntime.snapshot`.
    """

    __slots__ = ("engine", "load_version")

    def __init__(self, engine, load_version: int):
        self.engine = engine
        self.load_version = load_version

    @property
    def sim_time(self) -> float:
        return self.engine.now

    @property
    def pending_events(self) -> int:
        return self.engine.pending


class SimRuntime:
    """All simulation state for one experiment run."""

    def __init__(self, cluster: Cluster, trace_level: str = TRACE_FULL):
        self.cluster = cluster
        self.trace_level = check_trace_level(trace_level)
        self.env = Environment()
        self.busy = BusyRecorder(trace_level)
        self.flops_log = FlopsLog(trace_level)
        self.transfer_log = TransferLog(trace_level)
        self.network = NetworkChannel(self.env, cluster, self.transfer_log)
        #: The armed :class:`~repro.faults.FaultInjector`, or ``None``
        #: (the permanent state of fault-free runs -- the executor's
        #: availability gates are dormant while this is ``None``).
        self.faults = None
        self._stations: Dict[Tuple[str, str], ProcessorStation] = {}
        #: Bumped whenever any station's committed backlog changes, so
        #: (now, version) identifies a load snapshot.
        self._load_version = 0
        for device in cluster.devices:
            for processor in device.processors:
                self._stations[(device.name, processor.name)] = ProcessorStation(
                    self.env, device, processor, self.busy, self.flops_log, runtime=self
                )
        #: Per-device station tuples + total snapshot weight, hoisted
        #: off the snapshot hot path.
        self._device_stations: Dict[str, Tuple[Tuple[ProcessorStation, ...], float]] = {}
        for device in cluster.devices:
            stations = tuple(
                station
                for (dev, _), station in self._stations.items()
                if dev == device.name
            )
            total_weight = sum(station.compute_weight for station in stations)
            self._device_stations[device.name] = (stations, total_weight)

    def station(self, device_name: str, processor_name: str) -> ProcessorStation:
        try:
            return self._stations[(device_name, processor_name)]
        except KeyError:
            raise KeyError(f"no station for {device_name}/{processor_name}") from None

    def stations_of(self, device_name: str) -> Tuple[ProcessorStation, ...]:
        try:
            return self._device_stations[device_name][0]
        except KeyError:
            return ()

    def station_backlogs(self, device_name: str) -> Dict[str, float]:
        """Per-station committed backlog on one device, keyed by processor."""
        return {
            station.processor.name: station.backlog_seconds
            for station in self.stations_of(device_name)
        }

    def device_backlog(self, device_name: str, view: str = LOAD_VIEW_MIN) -> float:
        """Outstanding committed work on a device, reduced per ``view``.

        - ``"min"`` -- the least-loaded processor's backlog: the
          earliest-start delay new work would see if the node routed it
          to its freest core.  Optimistic: a single idle weak CPU makes
          a device with a saturated GPU look free.
        - ``"weighted"`` -- station backlogs averaged with each
          processor's aggregate compute rate as weight, so congestion on
          the cores that do the work dominates the snapshot even while a
          minor core idles.
        """
        stations, total_weight = self._device_stations[device_name]
        if view == LOAD_VIEW_MIN:
            return min(station.backlog_seconds for station in stations)
        if view == LOAD_VIEW_WEIGHTED:
            if total_weight <= 0:
                return min(station.backlog_seconds for station in stations)
            now = self.env.now
            weighted = 0.0
            for station in stations:
                backlog = station.committed_until - now
                if backlog > 0.0:
                    weighted += station.compute_weight * backlog
            return weighted / total_weight
        raise ValueError(f"unknown load view {view!r}; known: {LOAD_VIEWS}")

    def load_snapshot(self, view: str = LOAD_VIEW_MIN) -> Dict[str, float]:
        """Per-device backlog, consumed by load-aware strategies.

        ``view`` selects the per-station reduction (see
        :meth:`device_backlog`); the default ``"min"`` preserves the
        historical optimistic snapshot for legacy callers.
        """
        return {
            device.name: self.device_backlog(device.name, view=view)
            for device in self.cluster.devices
        }

    def snapshot(self) -> RuntimeSnapshot:
        """Capture the paused run: engine state + load version.

        Station backlogs, trace aggregates and channel state live in
        objects referenced by the pending generator frames, so the
        in-memory checkpoint holds them by reference -- the snapshot is
        a consistency *witness* (heap, clock, sequence counter), not a
        serialised copy.  Valid while no event has been processed since
        capture; see :meth:`Environment.snapshot`.
        """
        return RuntimeSnapshot(
            engine=self.env.snapshot(), load_version=self._load_version
        )

    def restore(self, snapshot: RuntimeSnapshot) -> None:
        """Rewind to a snapshot taken on this runtime.

        Delegates the heap/clock/counter rewind to the engine (which
        validates nothing was processed since capture) and rewinds the
        load version with it.
        """
        self.env.restore(snapshot.engine)
        self._load_version = snapshot.load_version

    @property
    def now(self) -> float:
        return self.env.now
