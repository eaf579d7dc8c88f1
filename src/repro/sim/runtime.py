"""Simulation runtime: binds platform objects to engine resources.

One :class:`SimRuntime` per experiment run.  Every processor of every
device becomes a FIFO-served compute station; the wireless LAN becomes
a single shared half-duplex channel.  All contention effects -- a GPU
queueing two tiles, two nodes fighting for the air -- emerge from these
resources.

``trace_level`` selects how much the run records
(:data:`~repro.sim.trace.TRACE_FULL` materialises every busy interval,
FLOPs completion and transfer exactly as the seed runtime did;
:data:`~repro.sim.trace.TRACE_AGGREGATE` keeps O(1) streaming totals
for large-scale serving streams).  The simulated event schedule is
identical either way -- recording never schedules events.

Load snapshots are memoised per (sim time, commitment version) on the
engine fast path: a snapshot is a pure function of the stations'
committed backlogs and the clock, so two snapshots with no intervening
commit are byte-equal and the second one is free.
"""

from __future__ import annotations

from typing import Dict, Generator, Mapping, Optional, Tuple

from repro.dnn.layers import LAYER_CLASSES
from repro.platform.cluster import Cluster
from repro.platform.device import Device
from repro.platform.power import DVFSThrottle
from repro.platform.processor import Processor
from repro.sim.engine import Environment, Event, Timeout
from repro.sim.resources import Resource
from repro.sim.trace import (
    TRACE_FULL,
    BusyRecorder,
    FlopsLog,
    TransferLog,
    check_trace_level,
)

#: Load-snapshot reductions over a device's stations.
LOAD_VIEW_MIN = "min"
LOAD_VIEW_WEIGHTED = "weighted"
LOAD_VIEWS = (LOAD_VIEW_MIN, LOAD_VIEW_WEIGHTED)


class ProcessorStation:
    """A processor with a FIFO task queue and busy-interval recording."""

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
        self._resource = Resource(env, capacity=1)
        self._busy = busy
        self._flops_log = flops_log
        self._runtime = runtime
        self.key = BusyRecorder.key(device.name, processor.name)
        #: Aggregate compute rate over all layer classes; the station's
        #: weight in the ``"weighted"`` load view (hoisted: rates are
        #: immutable and the snapshot path is hot).
        self.compute_weight = sum(processor.rate(cls) for cls in LAYER_CLASSES)
        #: Time at which all currently committed work will have drained;
        #: lets planners see the backlog of in-flight requests.
        self.committed_until = 0.0
        #: Time-varying DVFS slowdown (fault injection); factor 1.0 --
        #: the permanent state of fault-free runs -- is skipped on the
        #: hot path, so healthy schedules stay byte-identical.
        self.throttle = DVFSThrottle()

    @property
    def backlog_seconds(self) -> float:
        """Outstanding committed work on this processor."""
        return max(0.0, self.committed_until - self.env.now)

    def hold(self, duration: float, label: str) -> Generator[Event, None, float]:
        """Process: the capacity-1 hold protocol every charge uses --
        commit the backlog, queue for the resource, stay busy for
        ``duration``, record the interval, release.  Returns the
        completion time.

        The one implementation of the protocol.  The executor's compute
        tasks, fan-out children and controller overheads ``yield from``
        it directly, so each hold is a single delegated frame;
        :meth:`run_task` and :meth:`run_overhead` wrap it for callers
        that work from FLOPs or need the zero-overhead shortcut.
        """
        env = self.env
        factor = self.throttle.factor
        if factor != 1.0:
            duration = duration * factor
        committed = self.committed_until
        now = env.now
        self.committed_until = (committed if committed > now else now) + duration
        runtime = self._runtime
        if runtime is not None:
            runtime._load_version += 1
        request = self._resource.request()
        try:
            yield request
        except BaseException:
            # Abandoned while queued (the flow around us unwound): give
            # the claim back and un-commit the backlog, so an aborted
            # plan leaks neither a grant nor phantom committed work.
            self._resource.release(request)
            self.committed_until -= duration
            if runtime is not None:
                runtime._load_version += 1
            raise
        start = env.now
        try:
            yield Timeout(env, duration)
        finally:
            end = env.now
            self._busy.record(self.key, start, end, label)
            self._resource.release(request)
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
        for exactly ``seconds``: the resource is held for the full
        duration (so concurrent requests queue rather than overlap) and
        ``committed_until`` sees it like any compute task.  Returns the
        completion time.
        """
        if seconds <= 0:
            return self.env.now
        return (yield from self.hold(seconds, label))

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length + self._resource.in_use


class NetworkChannel:
    """The shared wireless medium: one transfer at a time.

    Fault injection can :meth:`degrade` the medium transiently: a
    slowdown factor divides the effective bandwidth and multiplies the
    propagation latency until :meth:`restore`.  Concurrent episodes
    stack multiplicatively; with none active the hoisted constants are
    reset to *exactly* the base values, so fault-free transfers stay
    byte-identical.
    """

    def __init__(self, env: Environment, cluster: Cluster, log: TransferLog):
        self.env = env
        self.cluster = cluster
        self._resource = Resource(env, capacity=1)
        self._log = log
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
            return
        slowdown = 1.0
        for factor in self._slowdowns:
            slowdown *= factor
        self._bandwidth_bytes_s = self._base_bandwidth_bytes_s / slowdown
        self._latency_s = self._base_latency_s * slowdown

    def transmit(
        self, src: str, dst: str, size_bytes: int, tag: str = ""
    ) -> Generator[Event, None, None]:
        """Process: occupy the channel for the serialisation time, then
        let the propagation latency elapse and log the transfer.

        The one implementation of the channel leg: every executor
        transfer (probe, offload, pipeline block, result) is one
        ``yield from`` of it.
        """
        if src == dst:
            return
        env = self.env
        request = self._resource.request()
        try:
            yield request
        except BaseException:
            # Abandoned while queued for the medium: hand the claim
            # back so an aborted flow never wedges the channel.
            self._resource.release(request)
            raise
        start = env.now
        # The medium is held for the serialisation time only;
        # propagation latency elapses after the channel is free.
        serialisation = size_bytes / self._bandwidth_bytes_s
        try:
            yield Timeout(env, serialisation)
        finally:
            self._resource.release(request)
        hold_end = env.now
        yield Timeout(env, self._latency_s)
        self._log.record(start, env.now, size_bytes, src, dst, tag, hold_end=hold_end)


class RuntimeSnapshot:
    """A paused run's engine state plus the runtime-side cache keys.

    Wraps the engine's :class:`~repro.sim.engine.EngineSnapshot` and the
    load-snapshot version counter; valid under the same window (nothing
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
        #: Bumped whenever any station's committed backlog changes; the
        #: load-snapshot memo keys on (now, version, view).
        self._load_version = 0
        self._snapshot_cache: Optional[Tuple[Tuple, Dict[str, float]]] = None
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

        On the engine fast path the result is memoised until the clock
        advances or a station commits new work (the snapshot is a pure
        function of both), so the dispatcher's repeated same-instant
        snapshots cost one dict copy.
        """
        if self.env._fast:
            key = (self.env.now, self._load_version, view)
            cached = self._snapshot_cache
            if cached is not None and cached[0] == key:
                return dict(cached[1])
            snapshot = {
                device.name: self.device_backlog(device.name, view=view)
                for device in self.cluster.devices
            }
            self._snapshot_cache = (key, snapshot)
            return dict(snapshot)
        return {
            device.name: self.device_backlog(device.name, view=view)
            for device in self.cluster.devices
        }

    def snapshot(self) -> RuntimeSnapshot:
        """Capture the paused run: engine state + runtime cache keys.

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
        validates nothing was processed since capture) and drops the
        load-snapshot memo -- its key includes the clock, which may
        alias after a rewind over scheduled-then-discarded events.
        """
        self.env.restore(snapshot.engine)
        self._load_version = snapshot.load_version
        self._snapshot_cache = None

    @property
    def now(self) -> float:
        return self.env.now
