"""Discrete-event simulation core.

A deliberately small generator-based engine in the style of SimPy:
processes are generators that yield events; resources serialise access
with FIFO queues.  Event ordering is fully deterministic -- ties at the
same simulated time resolve by schedule order -- so every experiment in
this package is exactly reproducible.

Only the features the HiDP framework needs are implemented: timeouts,
processes, all-of conditions, FIFO resources and stores.  No interrupt
machinery, no real-time pacing.  The simulated hardware does not queue
through resources: a processor or the WLAN is a capacity-1 FIFO whose
next free instant is known, so ``repro.sim.runtime`` books each hold on
that calendar and wakes once at its end, through
:meth:`Environment.timeout_at` / :meth:`Environment.schedule_at`
(events at an absolute time).  Resources remain for the serving
layer's in-flight slots.

Both engine forms share one pending-set representation -- a heap of
``(time, seq, event)`` tuples -- so every schedule site is
branch-free and ``pending_events``/``scheduled_events`` are exact by
construction.  What differs is the *drain*, selected per
:class:`Environment` by :func:`repro.fastpath.sim_fastpath_enabled`
(``REPRO_SIM_FASTPATH=0`` forces the reference form):

- The **fast path** batch-pops every simultaneous-time entry under a
  single clock store and routes each through a type-specialised arm:
  timeouts and plain events are retired inline --
  when the sole subscriber is a waiting :class:`Process` its generator
  is resumed *directly*, skipping the ``_process`` -> callback ->
  ``_resume`` frame chain -- late calls invoke their stored callback,
  and everything else (process bootstraps, resource grants) falls
  back to generic ``_process()`` dispatch.  Processes bootstrap
  by scheduling themselves (no bootstrap ``Event``) and subscribe to
  events as bare callables, so the hottest wait-resume cycle allocates
  nothing beyond the event and its heap entry.
- The **reference path** is the seed implementation -- one ``heappop``
  + ``_process()`` per event -- kept as the executable specification.
  Every fast-path entry occupies exactly the same ``(time, sequence)``
  slot as its reference counterpart, so the two paths produce
  identical event schedules -- pinned by
  ``tests/sim/test_engine_fastpath.py`` and the cross-hatch matrix.

:meth:`Environment.snapshot` exports the pending set as parallel
arrays (numpy times/seqs plus the aligned event list, mirroring the
DP-kernel array style) and :meth:`Environment.restore` rebuilds the
heap from them -- the run-checkpoint machinery in ``repro.serving``
builds on this pair.  (The *live* heap stays a C-heapq tuple heap
rather than a numpy structure: a Python-level array heap pays
interpreter cost per sift where ``heapq`` pays none, and loses.)
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import isfinite
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.fastpath import sim_fastpath_enabled


class SimulationError(RuntimeError):
    """Raised for illegal engine usage (double triggers, deadlocks...)."""


class ProcessCrashed(SimulationError):
    """An exception escaped a process generator during the event loop.

    Chains the original exception (``__cause__``) and carries the crash
    context the bare traceback loses: the simulated time and the
    :class:`Process` whose generator raised.  The environment itself
    stays consistent -- the crashing event was popped before its
    callbacks ran, so a subsequent :meth:`Environment.run` continues
    with the remaining schedule intact.
    """

    def __init__(self, process: "Process", sim_time: float, cause: BaseException):
        name = getattr(process._generator, "__name__", "<generator>")
        super().__init__(
            f"process {name!r} crashed at t={sim_time!r}s: {cause!r}"
        )
        self.process = process
        self.sim_time = sim_time


class Event:
    """A one-shot occurrence; callbacks fire when it triggers.

    ``callbacks`` holds ``None`` (no subscribers -- the initial state,
    and the state after processing), a bare callable (exactly one
    subscriber, the overwhelmingly common case: the process waiting on
    this event), or a list of callables.  The compact single-subscriber
    form avoids a one-element list allocation per event on the hot
    path; :meth:`add_callback` upgrades it transparently.  A waiting
    :class:`Process` subscribes as *itself* (processes are callable),
    which is what lets the batch-drain loop resume its generator
    without any intermediate frames.
    """

    __slots__ = ("env", "callbacks", "_triggered", "_processed", "_value")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Any = None
        self._triggered = False
        self._processed = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now (callbacks run at the current sim time)."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        heappush(env._queue, (env.now, env._seq, self))
        env._seq += 1
        return self

    def _process(self) -> None:
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._processed:
            # Late subscription: run at the current time, in its own
            # schedule slot (so interleaving with other same-time events
            # matches subscription order exactly).
            env = self.env
            if env._fast:
                env._schedule(_LateCall(env, self._value, callback), 0.0)
            else:
                # Reference path: a fresh proxy event (seed behaviour).
                proxy = Event(env)
                proxy.callbacks = callback
                proxy._triggered = True
                proxy._value = self._value
                env._schedule(proxy, 0.0)
        else:
            callbacks = self.callbacks
            if callbacks is None:
                self.callbacks = callback
            elif callbacks.__class__ is list:
                callbacks.append(callback)
            else:
                self.callbacks = [callbacks, callback]


class _NullEvent:
    """The value carrier for a process's very first resume (``send(None)``)."""

    __slots__ = ()
    _value = None


_BOOTSTRAP_VALUE = _NullEvent()

_new_event = Event.__new__


class _LateCall:
    """A slim scheduled late-subscription callback (fast path only).

    Duck-types the slice of :class:`Event` a callback may touch --
    ``value``/``triggered``/``processed`` and the engine-internal
    ``_value`` -- without the full event machinery.
    """

    __slots__ = ("env", "_value", "_callback", "_processed")

    def __init__(self, env: "Environment", value: Any, callback: Callable):
        self.env = env
        self._value = value
        self._callback = callback
        self._processed = False

    @property
    def value(self) -> Any:
        return self._value

    @property
    def triggered(self) -> bool:
        return True

    @property
    def processed(self) -> bool:
        return self._processed

    def _process(self) -> None:
        self._processed = True
        self._callback(self)


#: Upper bound used by the fused delay guard: ``0.0 <= delay < _INF``
#: is ``math.isfinite(delay) and delay >= 0`` in one chained comparison
#: (NaN fails both bounds -- a NaN heap key would silently corrupt the
#: ordering of every later event), keeping the validation off the hot
#: path's function-call budget.
_INF = float("inf")


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not (0.0 <= delay < _INF):
            if isfinite(delay) and delay < 0:
                raise SimulationError(f"negative timeout: {delay}")
            raise SimulationError(f"non-finite timeout: {delay!r}")
        # Flattened Event.__init__ + schedule: a Timeout is born
        # triggered and goes straight onto the heap.
        self.env = env
        self.callbacks = None
        self._triggered = True
        self._processed = False
        self._value = value
        self.delay = delay
        heappush(env._queue, (env.now + delay, env._seq, self))
        env._seq += 1


class Process(Event):
    """Wraps a generator; the process event triggers when it returns.

    A process is *callable* (calling it resumes its generator with the
    completed event's value), so it sits directly in an event's
    ``callbacks`` slot with no bound-method allocation -- and the
    batch-drain loop recognises the class and resumes the generator
    inline, skipping the ``_process`` -> callback -> ``_resume`` frame
    chain entirely.
    """

    __slots__ = ("_generator", "_started")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]):
        self.env = env
        self.callbacks = None
        self._triggered = False
        self._processed = False
        self._value = None
        self._generator = generator
        if env._fast:
            # Bootstrap by scheduling *this* event with a not-started
            # mark: no bootstrap Event allocation, same schedule slot.
            self._started = False
            heappush(env._queue, (env.now, env._seq, self))
            env._seq += 1
        else:
            # Reference path: a fresh bootstrap event (seed behaviour).
            self._started = True
            bootstrap = Event(env)
            bootstrap._triggered = True
            env._schedule(bootstrap, 0.0)
            bootstrap.callbacks = self._resume

    def _process(self) -> None:
        if self._started:
            Event._process(self)
            return
        self._started = True
        self._resume(_BOOTSTRAP_VALUE)

    def _resume(self, completed: Event) -> None:
        try:
            target = self._generator.send(completed._value)
        except StopIteration as stop:
            if self._triggered:
                raise SimulationError("process event already triggered") from None
            self._triggered = True
            self._value = stop.value
            env = self.env
            heappush(env._queue, (env.now, env._seq, self))
            env._seq += 1
            return
        except Exception as exc:
            # The generator body raised: surface it as an engine error
            # carrying the simulated time and the process, with the
            # original exception chained.  The event that resumed us was
            # already popped, so the environment stays runnable.
            raise ProcessCrashed(self, self.env.now, exc) from exc
        try:
            processed = target._processed
        except AttributeError:
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected an Event"
            ) from None
        if processed:
            target.add_callback(self)
        else:
            # Event.add_callback's not-yet-processed branch, inlined
            # (the hottest subscription site) -- keep the storage scheme
            # (None / bare callable / list) in sync with add_callback.
            callbacks = target.callbacks
            if callbacks is None:
                target.callbacks = self
            elif callbacks.__class__ is list:
                callbacks.append(self)
            else:
                target.callbacks = [callbacks, self]

    #: Calling a process resumes it -- this is what lets a Process
    #: object *be* the callback entry for the event it waits on.
    __call__ = _resume


class AllOf(Event):
    """Triggers once every child event has triggered.

    The value is the list of child values in the original order.
    Bookkeeping is one pending counter plus the child tuple; the value
    list is materialised only when the last child lands.
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self.env = env
        self.callbacks = None
        self._triggered = False
        self._processed = False
        self._value = None
        children = tuple(events)
        self._children = children
        self._pending = len(children)
        if not children:
            self.succeed([])
            return
        on_child = self._on_child
        for child in children:
            child.add_callback(on_child)

    def _on_child(self, child: Event) -> None:
        del child
        self._pending -= 1
        if self._pending == 0 and not self._triggered:
            self.succeed([c._value for c in self._children])


class EngineSnapshot:
    """A point-in-time capture of an :class:`Environment`'s pending set.

    The pending events live in **parallel arrays** -- ``times``
    (float64) and ``seqs`` (int64) numpy arrays plus the aligned
    ``events`` list, in exact schedule order -- alongside the clock,
    the sequence counter and the processed-event count the restore
    validation needs.  Event objects are held by reference: a snapshot
    is valid to restore for as long as no captured generator frame has
    advanced, i.e. until the environment processes another event.
    """

    __slots__ = ("now", "seq", "processed", "times", "seqs", "events")

    def __init__(self, now, seq, processed, times, seqs, events):
        self.now = now
        self.seq = seq
        self.processed = processed
        self.times = times
        self.seqs = seqs
        self.events = events

    @property
    def pending(self) -> int:
        return len(self.events)


class Environment:
    """The event loop: a priority queue over (time, sequence)."""

    __slots__ = ("now", "_queue", "_seq", "_fast")

    def __init__(self, fast: Optional[bool] = None) -> None:
        self.now = 0.0
        self._queue: List = []
        self._seq = 0
        self._fast = sim_fastpath_enabled() if fast is None else bool(fast)

    def _schedule(self, event: Event, delay: float) -> None:
        heappush(self._queue, (self.now + delay, self._seq, event))
        self._seq += 1

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """An event that triggers at the absolute time ``when``.

        Calendar reservations know the exact instant a hold ends;
        ``Timeout(when - now)`` would re-derive it as
        ``now + (when - now)``, which can differ from ``when`` in the
        last bit.  Scheduling the absolute time keeps a reserved end
        bitwise equal to the end a FIFO queue would have produced.
        """
        if not (self.now <= when < _INF):
            raise SimulationError(f"cannot schedule at {when!r} (now {self.now!r})")
        # Flattened Event.__init__: every hold end is one of these.
        event = _new_event(Event)
        event.env = self
        event.callbacks = None
        event._triggered = True
        event._processed = False
        event._value = value
        heappush(self._queue, (when, self._seq, event))
        self._seq += 1
        return event

    def schedule_at(self, event: Event, when: float, value: Any = None) -> Event:
        """Trigger a pending ``event`` at the absolute time ``when``
        (:meth:`Event.succeed` for a known future instant)."""
        if event._triggered:
            raise SimulationError("event already triggered")
        if not (self.now <= when < _INF):
            raise SimulationError(f"cannot schedule at {when!r} (now {self.now!r})")
        event._triggered = True
        event._value = value
        heappush(self._queue, (when, self._seq, event))
        self._seq += 1
        return event

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue drains or ``until`` is reached."""
        if until is not None and not isfinite(until):
            raise SimulationError(f"non-finite run horizon: {until!r}")
        if self._fast:
            self._drain(until)
            return
        # Reference loop (seed behaviour, kept as the executable spec).
        while self._queue:
            time, _, event = self._queue[0]
            if until is not None and time > until:
                self.now = until
                return
            heappop(self._queue)
            self.now = time
            event._process()
        if until is not None:
            self.now = max(self.now, until)

    def _drain(self, until: Optional[float]) -> None:
        """The batch-drain loop: pop a timestamp, retire its whole batch.

        The outer loop reads each distinct time once (one clock store,
        one ``until`` comparison per *batch*); the inner loop pops every
        entry at that time -- including same-time entries scheduled
        mid-batch, which the peek picks up in their exact sequence slots
        -- and dispatches it through a type-specialised arm instead of
        generic ``_process()``.  The inline arms mirror
        ``Event._process`` / ``Process._resume`` exactly; keep them in
        sync.
        """
        queue = self._queue
        pop = heappop
        timeout_cls = Timeout
        event_cls = Event
        process_cls = Process
        allof_cls = AllOf
        late_cls = _LateCall
        list_cls = list
        while queue:
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                return
            self.now = time
            while True:
                event = pop(queue)[2]
                cls = event.__class__
                # Every engine class whose processing is exactly
                # ``Event._process`` (a *started* Process completes like
                # a plain event) takes the inline arm, ordered by
                # observed frequency; anything else -- an unstarted
                # Process bootstrap, a late call, or an out-of-tree
                # Event subclass -- falls through below.
                if (
                    cls is event_cls
                    or cls is timeout_cls
                    or (cls is process_cls and event._started)
                    or cls is allof_cls
                ):
                    event._processed = True
                    callback = event.callbacks
                    if callback is not None:
                        event.callbacks = None
                        if callback.__class__ is process_cls:
                            # Resume the waiting process inline.
                            try:
                                target = callback._generator.send(event._value)
                            except StopIteration as stop:
                                if callback._triggered:
                                    raise SimulationError(
                                        "process event already triggered"
                                    ) from None
                                callback._triggered = True
                                callback._value = stop.value
                                heappush(queue, (time, self._seq, callback))
                                self._seq += 1
                            except Exception as exc:
                                raise ProcessCrashed(
                                    callback, time, exc
                                ) from exc
                            else:
                                try:
                                    processed = target._processed
                                except AttributeError:
                                    raise SimulationError(
                                        f"process yielded"
                                        f" {type(target).__name__},"
                                        " expected an Event"
                                    ) from None
                                if processed:
                                    target.add_callback(callback)
                                else:
                                    subscribers = target.callbacks
                                    if subscribers is None:
                                        target.callbacks = callback
                                    elif subscribers.__class__ is list_cls:
                                        subscribers.append(callback)
                                    else:
                                        target.callbacks = [
                                            subscribers,
                                            callback,
                                        ]
                        elif callback.__class__ is list_cls:
                            for entry in callback:
                                entry(event)
                        else:
                            callback(event)
                elif cls is late_cls:
                    event._processed = True
                    event._callback(event)
                else:
                    event._process()
                if not queue or queue[0][0] != time:
                    break
        if until is not None and self.now < until:
            self.now = until

    def run_process(self, generator: Generator[Event, Any, Any]) -> Any:
        """Convenience: drive one process to completion, return its value."""
        process = self.process(generator)
        self.run()
        if not process.triggered:
            raise SimulationError("process deadlocked: event queue drained early")
        return process.value

    def snapshot(self) -> EngineSnapshot:
        """Capture the clock, sequence counter and pending set.

        The pending events are exported as parallel arrays in exact
        ``(time, seq)`` schedule order.  Everything is held by
        reference -- see :class:`EngineSnapshot` for the validity
        window.
        """
        import numpy as np

        entries = sorted(self._queue)
        return EngineSnapshot(
            now=self.now,
            seq=self._seq,
            processed=self._seq - len(self._queue),
            times=np.array([entry[0] for entry in entries], dtype=np.float64),
            seqs=np.array([entry[1] for entry in entries], dtype=np.int64),
            events=[entry[2] for entry in entries],
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Rewind the pending set to a snapshot taken on this run.

        Valid only while no event has been processed since the capture
        (processing advances generator frames, which no snapshot can
        rewind); events merely *scheduled* since are discarded along
        with their sequence numbers, so the restored schedule continues
        byte-identically to one that never scheduled them.
        """
        processed = self._seq - len(self._queue)
        if processed != snapshot.processed:
            raise SimulationError(
                f"cannot restore: {processed - snapshot.processed} events were"
                " processed since the snapshot (generator frames advanced)"
            )
        queue = [
            (time, seq, event)
            for time, seq, event in zip(
                snapshot.times.tolist(), snapshot.seqs.tolist(), snapshot.events
            )
        ]
        heapify(queue)
        self._queue = queue
        self.now = snapshot.now
        self._seq = snapshot.seq

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def scheduled_events(self) -> int:
        """Total heap entries ever scheduled (the bench's event count).

        Schedule-identical paths produce the same value, so fast and
        reference runs of one workload can be compared events-per-second
        without instrumenting the hot loop.
        """
        return self._seq
