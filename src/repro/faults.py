"""Seeded fault injection and the serving recovery contract.

Every figure up to fig10 runs on a static, healthy cluster.  This
module is the hostile-conditions tier (ROADMAP item 4): a
deterministic, seeded perturbation process drives timed cluster events
through the simulation, and the serving stack recovers from them.

Event model
-----------

:class:`PerturbationProcess` expands a seed into a fixed, sorted list
of :class:`FaultEvent` before the simulation starts -- the fault
timeline is a pure function of ``(seed, parameters, cluster)``, never
of simulation state, so runs replay byte-identically and a failure
reproduces from its seed.  Three independent exponential-clock streams
are drawn from one ``random.Random(seed)``:

- **Device churn** (``churn_rate`` outages/s): an available,
  unprotected device leaves (:meth:`Cluster.set_available`) and rejoins
  after an exponential outage (``mean_outage_s``).  A device already
  down is never drawn again until it rejoins.
- **Link degradation** (``link_rate`` episodes/s): the shared wireless
  medium slows by ``link_factor`` (bandwidth divided, latency
  multiplied) for an exponential episode, stacking multiplicatively
  with concurrent episodes, then restores exactly.
- **DVFS throttling** (``dvfs_rate`` episodes/s): one device's
  processors scale every task duration by ``dvfs_factor`` (thermal /
  frequency capping through :class:`~repro.platform.power.DVFSThrottle`)
  for an exponential episode.
- **Correlated (spatial) outages** (``correlated_rate`` episodes/s):
  the named ``correlated_group`` of devices fails *atomically* -- every
  unprotected, currently-up member leaves at the same instant and
  rejoins together after one shared exponential outage
  (``mean_correlated_outage_s``).  Models rack/power-domain failures:
  independent churn rarely takes down co-located boards at once, but a
  shared PSU does.  The group stream is drawn *after* the three legacy
  streams, so adding it never perturbs their timelines for a given
  seed.

A process with all rates zero produces *no events*, and arming it
is a no-op: every schedule stays byte-identical to a fault-free run
(the degenerate pin in ``tests/integration/test_hatch_matrix.py``).

Recovery contract
-----------------

Who detects, who retries, who sheds:

- The **executor** detects.  :class:`~repro.core.executor.PlanExecutor`
  gates each plan segment on device availability and raises
  :class:`DeviceLostError` (a structured failed-segment event: device,
  segment, sim time) the moment a plan touches a lost device.  Work
  already running finishes and is charged (partial work is real work);
  every resource hold is released on the way out, so no busy interval
  is orphaned and no grant leaks.
- The **scheduler** retries.  ``ShardedScheduler`` (and its one-shard
  ``OnlineScheduler`` preset) catches the failure, charges an
  exponential backoff (:meth:`RetryPolicy.backoff_s`) as queue delay,
  and re-admits the request through the normal dispatcher path, where planning against
  the current :meth:`~repro.platform.cluster.Cluster.availability_signature`
  (the plan-cache key) yields a plan that avoids the lost device.
- The **policy** sheds.  Past ``max_retries``, or past the
  ``pressure_threshold`` with ``degradation="shed"``, the request is
  counted shed instead of re-admitted (exactly-once: a request
  completes once *or* is shed, never both).  ``degradation="downgrade"``
  re-admits over-pressure retries at a worse priority instead of
  dropping them.

:class:`FaultTrace` accounts for all of it at both trace levels:
exact failure/retry/shed/downgrade counters always, streaming
time-to-recovery and retries-per-request percentiles always, per-event
failed-segment records only at ``trace_level="full"`` (the aggregate
level raises :class:`~repro.sim.trace.TraceLevelError` on per-entry
views, consistent with the other recorders).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.serving import StreamingStats
from repro.platform.power import BatteryModel
from repro.sim.trace import TRACE_FULL, TraceLevelError, check_trace_level

#: Fault-event kinds.
DEVICE_LEAVE = "device_leave"
DEVICE_JOIN = "device_join"
LINK_DEGRADE = "link_degrade"
LINK_RESTORE = "link_restore"
DVFS_THROTTLE = "dvfs_throttle"
DVFS_RESTORE = "dvfs_restore"
BATTERY_DRAIN = "battery_drain"
FAULT_KINDS = (
    DEVICE_LEAVE,
    DEVICE_JOIN,
    LINK_DEGRADE,
    LINK_RESTORE,
    DVFS_THROTTLE,
    DVFS_RESTORE,
    BATTERY_DRAIN,
)

#: Target name of cluster-wide link events (there is one shared medium).
LINK_TARGET = "wlan"

#: Graceful-degradation modes of :class:`RetryPolicy`.
DEGRADE_NONE = "none"
DEGRADE_SHED = "shed"
DEGRADE_DOWNGRADE = "downgrade"
DEGRADATIONS = (DEGRADE_NONE, DEGRADE_SHED, DEGRADE_DOWNGRADE)


class DeviceLostError(RuntimeError):
    """A plan touched a device that left the cluster mid-execution.

    The executor's structured failed-segment event: ``device`` is the
    lost node, ``segment`` names the FSM segment that tripped the gate
    (``dispatch``, ``probe``, ``explore``, ``offload``, ``stage``,
    ``tile``, ``execute``, ``result``, ``merge``), ``time_s`` the
    simulated detection time.
    """

    def __init__(self, device: str, segment: str, time_s: float):
        super().__init__(
            f"device {device!r} lost during {segment!r} at t={time_s:.6f}s"
        )
        self.device = device
        self.segment = segment
        self.time_s = time_s


@dataclass(frozen=True)
class FaultEvent:
    """One timed perturbation.  ``factor`` is the slowdown multiplier
    of link/DVFS events (restore events carry the factor they undo)."""

    time_s: float
    kind: str
    target: str
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"negative event time: {self}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class PerturbationProcess:
    """A seeded generator of fault timelines (see the module docstring).

    ``horizon_s`` bounds where *new* episodes start; the paired
    join/restore events may land past it, so every outage ends and the
    cluster finishes the run whole.  ``protected`` devices are never
    taken down (schedulers add their leader devices: a dispatcher
    cannot replan from a dead brain).
    """

    seed: int = 0
    horizon_s: float = 60.0
    churn_rate: float = 0.0
    mean_outage_s: float = 1.0
    link_rate: float = 0.0
    link_factor: float = 4.0
    mean_link_s: float = 1.0
    dvfs_rate: float = 0.0
    dvfs_factor: float = 2.0
    mean_dvfs_s: float = 1.0
    protected: Tuple[str, ...] = ()
    correlated_rate: float = 0.0
    correlated_group: Tuple[str, ...] = ()
    mean_correlated_outage_s: float = 1.0
    #: Finite energy budgets per device, as ``(name, BatteryModel)``
    #: pairs (a tuple keeps the dataclass hashable/frozen).  Unlike the
    #: pre-expanded event streams above, battery drain depends on
    #: *simulation state* (actual busy time under the actual DVFS
    #: factor), so :class:`FaultInjector` samples it every
    #: ``battery_sample_s`` over ``[0, horizon_s]`` instead of expanding
    #: it up front.  An empty tuple adds zero processes and zero events:
    #: schedules stay byte-identical.
    batteries: Tuple[Tuple[str, BatteryModel], ...] = ()
    battery_sample_s: float = 0.25

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon_s}")
        for name in ("churn_rate", "link_rate", "dvfs_rate", "correlated_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative {name}: {getattr(self, name)}")
        for name in ("mean_outage_s", "mean_link_s", "mean_dvfs_s", "mean_correlated_outage_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.link_factor < 1.0 or self.dvfs_factor < 1.0:
            raise ValueError("slowdown factors must be >= 1")
        if self.correlated_rate > 0 and not self.correlated_group:
            raise ValueError("correlated_rate needs a non-empty correlated_group")
        if self.battery_sample_s <= 0:
            raise ValueError(
                f"battery_sample_s must be positive, got {self.battery_sample_s}"
            )
        seen = set()
        for name, model in self.batteries:
            if not isinstance(model, BatteryModel):
                raise ValueError(f"battery entry for {name!r} is not a BatteryModel")
            if name in seen:
                raise ValueError(f"duplicate battery entry for device {name!r}")
            seen.add(name)

    def battery_map(self, protected: Sequence[str] = ()) -> Dict[str, BatteryModel]:
        """The configured batteries minus shielded devices, in config order."""
        shielded = set(self.protected) | set(protected)
        return {
            name: model for name, model in self.batteries if name not in shielded
        }

    def events(self, cluster, protected: Sequence[str] = ()) -> List[FaultEvent]:
        """Expand the seed into the sorted fault timeline for ``cluster``."""
        shielded = set(self.protected) | set(protected)
        rng = random.Random(self.seed)
        out: List[FaultEvent] = []
        names = [device.name for device in cluster.devices]
        candidates = [name for name in names if name not in shielded]
        if self.churn_rate > 0 and candidates:
            down_until = {name: 0.0 for name in candidates}
            t = 0.0
            while True:
                t += rng.expovariate(self.churn_rate)
                if t >= self.horizon_s:
                    break
                up = [name for name in candidates if down_until[name] <= t]
                if not up:
                    continue
                victim = up[rng.randrange(len(up))]
                outage = rng.expovariate(1.0 / self.mean_outage_s)
                out.append(FaultEvent(t, DEVICE_LEAVE, victim))
                out.append(FaultEvent(t + outage, DEVICE_JOIN, victim))
                down_until[victim] = t + outage
        if self.link_rate > 0:
            t = 0.0
            while True:
                t += rng.expovariate(self.link_rate)
                if t >= self.horizon_s:
                    break
                episode = rng.expovariate(1.0 / self.mean_link_s)
                out.append(FaultEvent(t, LINK_DEGRADE, LINK_TARGET, self.link_factor))
                out.append(
                    FaultEvent(t + episode, LINK_RESTORE, LINK_TARGET, self.link_factor)
                )
        if self.dvfs_rate > 0 and names:
            t = 0.0
            while True:
                t += rng.expovariate(self.dvfs_rate)
                if t >= self.horizon_s:
                    break
                target = names[rng.randrange(len(names))]
                episode = rng.expovariate(1.0 / self.mean_dvfs_s)
                out.append(FaultEvent(t, DVFS_THROTTLE, target, self.dvfs_factor))
                out.append(
                    FaultEvent(t + episode, DVFS_RESTORE, target, self.dvfs_factor)
                )
        # Correlated group outages: drawn strictly after the legacy
        # streams (and only when enabled), so enabling them never
        # perturbs an existing seed's churn/link/DVFS timelines.
        if self.correlated_rate > 0:
            unknown = [name for name in self.correlated_group if name not in names]
            if unknown:
                raise ValueError(
                    f"correlated_group names unknown devices {unknown}; "
                    f"cluster has {names}"
                )
            group = [name for name in self.correlated_group if name not in shielded]
            if group:
                group_down_until = 0.0
                t = 0.0
                while True:
                    t += rng.expovariate(self.correlated_rate)
                    if t >= self.horizon_s:
                        break
                    if t < group_down_until:
                        continue  # the group is still down: no re-fail
                    outage = rng.expovariate(1.0 / self.mean_correlated_outage_s)
                    for name in group:
                        out.append(FaultEvent(t, DEVICE_LEAVE, name))
                        out.append(FaultEvent(t + outage, DEVICE_JOIN, name))
                    group_down_until = t + outage
        out.sort(key=lambda event: event.time_s)  # stable: ties keep stream order
        return out


class FaultInjector:
    """Applies a fault timeline to a live :class:`~repro.sim.runtime.SimRuntime`.

    :meth:`arm` registers the injector on the runtime (``runtime.faults``)
    and spawns the driver process -- but only when the timeline is
    non-empty, so a zero-event process adds zero scheduled events and
    leaves every schedule byte-identical.  The executor consults
    :meth:`device_ok` at its segment gates.

    Battery drain (the one fault stream that cannot be pre-expanded,
    because drain follows *actual* busy time under the *actual* DVFS
    factor) is sampled instead: ``batteries`` maps device names to
    :class:`~repro.platform.power.BatteryModel`, and a monitor process
    wakes every ``battery_sample_s`` over ``[0, battery_horizon_s]``,
    integrates each device's completed busy seconds (the
    :class:`~repro.sim.trace.BusyRecorder` totals are exact at both
    trace levels; in-flight holds bill at their completion sample), and
    drains the charge.  A device crossing ``floor_j`` leaves through the
    same :meth:`Cluster.set_available` path as churn -- and never
    rejoins; a drained battery has nothing left to rejoin with.  The
    serving control plane may call :meth:`force_drain` ahead of the
    crossing to turn the surprise outage into a planned migration.
    """

    def __init__(
        self,
        runtime,
        cluster,
        events: Sequence[FaultEvent],
        batteries: Optional[Dict[str, BatteryModel]] = None,
        battery_sample_s: float = 0.25,
        battery_horizon_s: float = 60.0,
    ):
        self.runtime = runtime
        self.cluster = cluster
        self.events = tuple(events)
        self.applied = 0
        self.counts: Dict[str, int] = {}
        if battery_sample_s <= 0:
            raise ValueError(f"battery_sample_s must be positive, got {battery_sample_s}")
        if battery_horizon_s <= 0:
            raise ValueError(f"battery_horizon_s must be positive, got {battery_horizon_s}")
        self.batteries: Dict[str, BatteryModel] = dict(batteries or {})
        known = {device.name for device in cluster.devices}
        for name in self.batteries:
            if name not in known:
                raise ValueError(f"battery configured for unknown device {name!r}")
        self.battery_sample_s = battery_sample_s
        self.battery_horizon_s = battery_horizon_s
        #: Remaining charge per battery device (exact at both levels).
        self.battery_charge: Dict[str, float] = {
            name: model.capacity_j for name, model in self.batteries.items()
        }
        #: Drain rate (J/s) observed over the last sampling window --
        #: the controller's projection signal for planned drains.
        self.battery_rate: Dict[str, float] = {name: 0.0 for name in self.batteries}
        #: Raw completed-busy-seconds watermark per station key (drain
        #: bills each window's *delta* at the station's current factor).
        self._station_busy: Dict[str, float] = {}
        self._battery_down: Dict[str, bool] = {name: False for name in self.batteries}

    @property
    def armed(self) -> bool:
        return bool(self.events) or bool(self.batteries)

    def arm(self) -> None:
        if not self.armed:
            return
        self.runtime.faults = self
        if self.events:
            self.runtime.env.process(self._drive())
        if self.batteries:
            self.runtime.env.process(self._monitor_batteries())

    def device_ok(self, device_name: str) -> bool:
        return self.cluster.is_available(device_name)

    def _drive(self):
        env = self.runtime.env
        for event in self.events:
            if event.time_s > env.now:
                yield env.timeout(event.time_s - env.now)
            self._apply(event)

    def battery_level(self, device_name: str) -> float:
        """Remaining charge of ``device_name``'s battery, in joules."""
        return self.battery_charge[device_name]

    def battery_drained(self, device_name: str) -> bool:
        return self._battery_down.get(device_name, False)

    def force_drain(self, device_name: str) -> None:
        """Take a battery device down *now* (the controller's planned
        migration, ahead of the projected floor crossing)."""
        if device_name not in self.batteries:
            raise ValueError(f"no battery configured for device {device_name!r}")
        self._drain(device_name)

    def _drain(self, device_name: str) -> None:
        if self._battery_down[device_name]:
            return
        self._battery_down[device_name] = True
        self.cluster.set_available(device_name, False)
        self.applied += 1
        self.counts[BATTERY_DRAIN] = self.counts.get(BATTERY_DRAIN, 0) + 1

    def _monitor_batteries(self):
        env = self.runtime.env
        busy = self.runtime.busy
        last_t = env.now
        while env.now < self.battery_horizon_s:
            yield env.timeout(self.battery_sample_s)
            now = env.now
            window_s = now - last_t
            last_t = now
            for name, model in self.batteries.items():
                if self._battery_down[name]:
                    continue
                delta_busy = 0.0
                for station in self.runtime.stations_of(name):
                    total = busy.busy_seconds(station.key)
                    prev = self._station_busy.get(station.key, 0.0)
                    self._station_busy[station.key] = total
                    delta_busy += (total - prev) * station.throttle.factor
                drain = model.drain_j(window_s, delta_busy)
                self.battery_charge[name] -= drain
                self.battery_rate[name] = drain / window_s if window_s > 0 else 0.0
                if self.battery_charge[name] <= model.floor_j:
                    self._drain(name)
            if all(self._battery_down.values()):
                break

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == DEVICE_LEAVE:
            self.cluster.set_available(event.target, False)
        elif kind == DEVICE_JOIN:
            self.cluster.set_available(event.target, True)
        elif kind == LINK_DEGRADE:
            self.runtime.network.degrade(event.factor)
        elif kind == LINK_RESTORE:
            self.runtime.network.restore(event.factor)
        elif kind == DVFS_THROTTLE:
            for station in self.runtime.stations_of(event.target):
                station.throttle.apply(event.factor)
        elif kind == DVFS_RESTORE:
            for station in self.runtime.stations_of(event.target):
                station.throttle.restore(event.factor)
        self.applied += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1


@dataclass(frozen=True)
class RetryPolicy:
    """How a scheduler re-admits failed requests (see module docstring).

    ``backoff_s(attempt)`` is charged as queue delay before the
    ``attempt``-th re-admission (exponential: base * factor^(attempt-1)).
    Past ``max_retries`` failures the request is shed.  With a
    ``degradation`` mode set, a retry arriving while scheduler pressure
    (queued + waiting-for-slot requests) exceeds ``pressure_threshold``
    is shed outright (``"shed"``) or re-admitted ``downgrade_priority_by``
    priority levels worse (``"downgrade"``).

    **Jitter.**  A correlated-group outage fails its whole cohort at
    one instant; with deterministic backoff the cohort re-admits on the
    same tick and stampedes the survivors.  ``jitter > 0`` stretches
    each backoff by up to that fraction -- ``delay * (1 + jitter * u)``
    where ``u`` is a *seeded* uniform draw keyed on ``(jitter_seed,
    request_id, attempt)``, so the spread is a pure function of the
    policy and the request, replayed byte-identically across runs.  The
    default ``jitter=0.0`` skips the draw entirely and stays
    byte-identical to the legacy backoff.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    degradation: str = DEGRADE_NONE
    pressure_threshold: int = 8
    downgrade_priority_by: int = 2
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"negative max_retries: {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ValueError(f"negative backoff: {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.backoff_factor}")
        if self.degradation not in DEGRADATIONS:
            raise ValueError(
                f"unknown degradation {self.degradation!r}; known: {DEGRADATIONS}"
            )
        if self.pressure_threshold < 0:
            raise ValueError(f"negative pressure threshold: {self.pressure_threshold}")
        if self.downgrade_priority_by < 0:
            raise ValueError(f"negative downgrade: {self.downgrade_priority_by}")
        if self.jitter < 0:
            raise ValueError(f"negative jitter: {self.jitter}")

    def backoff_s(self, attempt: int, request_id: int = 0) -> float:
        """Queue delay charged before re-admission number ``attempt`` (1-based).

        With ``jitter`` set, the delay is stretched by a deterministic
        per-``(request_id, attempt)`` factor in ``[1, 1 + jitter]`` --
        see the class docstring.  ``jitter=0`` returns the exact legacy
        exponential delay.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        delay = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if self.jitter <= 0:
            return delay
        # An integer mix keyed on (seed, request, attempt): pure int
        # arithmetic, so the draw replays across processes.
        key = (self.jitter_seed * 1_000_003 + request_id) * 1_000_003 + attempt
        u = random.Random(key).random()
        return delay * (1.0 + self.jitter * u)


@dataclass(frozen=True)
class FailedSegment:
    """One structured failed-segment record (``trace_level="full"`` only)."""

    request_id: int
    device: str
    segment: str
    time_s: float
    attempt: int


class FaultTrace:
    """Failure/recovery accounting at both trace levels.

    Counters (``failures``/``retries``/``shed``/``downgraded``/
    ``recovered``) are exact at both levels.  Time-to-recovery and
    retries-per-completed-request stream through
    :class:`~repro.metrics.serving.StreamingStats` (O(1) memory, exact
    counts, P-square percentiles).  Per-event views --
    :attr:`failed_segments`, :attr:`recovery_times` -- materialise only
    at ``trace_level="full"`` and raise
    :class:`~repro.sim.trace.TraceLevelError` otherwise.
    """

    def __init__(self, level: str = TRACE_FULL):
        self.level = check_trace_level(level)
        self._full = level == TRACE_FULL
        self.failures = 0
        self.retries = 0
        self.shed = 0
        self.downgraded = 0
        self.recovered = 0
        self.recovery = StreamingStats()
        self.retries_per_recovery = StreamingStats()
        self._failed_segments: List[FailedSegment] = []
        self._recovery_times: List[Tuple[int, float]] = []
        self._retry_times: List[Tuple[int, float]] = []

    def record_failure(
        self, request_id: int, device: str, segment: str, time_s: float, attempt: int
    ) -> None:
        self.failures += 1
        if self._full:
            self._failed_segments.append(
                FailedSegment(request_id, device, segment, time_s, attempt)
            )

    def record_retry(self, request_id: int, readmit_s: Optional[float] = None) -> None:
        """Count a re-admission; ``readmit_s`` (the sim time the retry
        re-enters the queue, backoff included) is kept per-event at
        ``trace_level="full"`` -- the jitter regression pin reads it."""
        self.retries += 1
        if self._full and readmit_s is not None:
            self._retry_times.append((request_id, readmit_s))

    def record_shed(self, request_id: int) -> None:
        del request_id
        self.shed += 1

    def record_downgrade(self, request_id: int) -> None:
        del request_id
        self.downgraded += 1

    def record_recovery(self, request_id: int, recovery_s: float, attempts: int) -> None:
        """A previously failed request completed ``recovery_s`` after its
        first failure, on dispatch attempt ``attempts``."""
        self.recovered += 1
        self.recovery.add(recovery_s)
        self.retries_per_recovery.add(float(attempts - 1))
        if self._full:
            self._recovery_times.append((request_id, recovery_s))

    def _require_full(self, what: str) -> None:
        if not self._full:
            raise TraceLevelError(
                f"{what} requires trace_level={TRACE_FULL!r}; this trace keeps "
                "streaming aggregates only"
            )

    @property
    def failed_segments(self) -> Tuple[FailedSegment, ...]:
        self._require_full("per-event failed-segment records")
        return tuple(self._failed_segments)

    @property
    def recovery_times(self) -> Tuple[Tuple[int, float], ...]:
        self._require_full("per-request recovery times")
        return tuple(self._recovery_times)

    @property
    def retry_times(self) -> Tuple[Tuple[int, float], ...]:
        self._require_full("per-retry re-admission times")
        return tuple(self._retry_times)

    def recovery_percentiles(self) -> Dict[str, float]:
        """Streaming p50/p95/p99 time-to-recovery (both levels)."""
        return self.recovery.percentiles()

    @property
    def mean_recovery_s(self) -> float:
        return self.recovery.mean
