"""FIFO and priority resources and stores on top of the event engine."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.sim.engine import Environment, Event, SimulationError


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource"):
        super().__init__(env)
        self.resource = resource


class Resource:
    """A capacity-limited resource with FIFO granting.

    Usage inside a process::

        request = resource.request()
        yield request
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(request)
    """

    __slots__ = ("env", "capacity", "_users", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self.env, self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        users = self._users
        try:
            users.remove(request)
        except ValueError:
            if request in self._waiting:
                self._waiting.remove(request)
                return
            raise SimulationError(
                "releasing a request this resource never granted"
            ) from None
        if self._waiting and len(users) < self.capacity:
            nxt = self._waiting.popleft()
            users.append(nxt)
            nxt.succeed()

    def set_capacity(self, capacity: int) -> None:
        """Resize the slot count at simulation time.

        Widening grants queued waiters immediately (FIFO order);
        narrowing only lowers the ceiling -- holders are never revoked,
        the pool shrinks as they release.  Used by the serving control
        plane's adaptive-concurrency actuator.
        """
        if capacity < 1:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        while self._waiting and len(self._users) < capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()


class PriorityRequest(Event):
    """A pending claim on a :class:`PriorityResource` slot.

    ``priority`` orders grants (lower value = more urgent).  A granted
    ``preemptible`` request may later have ``preempt_requested`` set by
    a more urgent arrival; the holder is expected to poll the flag at
    its own safe points and hand the slot back cooperatively -- the
    engine has no interrupt machinery, so preemption is always
    cooperative.
    """

    __slots__ = ("resource", "priority", "preemptible", "preempt_requested")

    def __init__(
        self, env: Environment, resource: "PriorityResource", priority: int, preemptible: bool
    ):
        self.env = env
        self.callbacks = None
        self._triggered = False
        self._processed = False
        self._value = None
        self.resource = resource
        self.priority = priority
        self.preemptible = preemptible
        #: Set when a more urgent waiter asked for this holder's slot.
        self.preempt_requested = False


class PriorityResource:
    """A capacity-limited resource granting slots by priority.

    Waiting claims are granted in ``(priority, arrival)`` order: the
    most urgent waiter wins, and claims of equal priority are FIFO --
    with a single priority level this degenerates to exactly
    :class:`Resource`'s behaviour (same grant times, same order).

    Preemption is cooperative: ``request(..., preempt=True)`` that
    cannot be granted immediately marks the least urgent *preemptible*
    holder whose (static) priority is strictly worse than the claim's.
    The holder observes ``preempt_requested`` at its next safe point
    (e.g. a plan-segment boundary), releases the slot -- waking the
    urgent waiter -- and re-requests at its own priority to resume.

    **Aging** (ROADMAP open item): strictly urgent-first granting lets
    a sustained urgent stream starve the background class on open-ended
    traffic.  With ``aging_s`` set, a waiter's *effective* priority at
    grant time is ``priority - waited / aging_s`` -- every ``aging_s``
    seconds queued buys one priority level, so any waiter eventually
    out-ranks fresh urgent arrivals.  Ties still resolve FIFO (by
    arrival order).  The default ``aging_s=None`` keeps the exact
    urgent-first heap behaviour, so existing runs stay byte-identical.
    """

    __slots__ = ("env", "capacity", "aging_s", "_users", "_waiting", "_seq", "preempt_marks")

    def __init__(self, env: Environment, capacity: int = 1, aging_s: Optional[float] = None):
        if capacity < 1:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        if aging_s is not None and aging_s <= 0:
            raise SimulationError(f"aging_s must be positive, got {aging_s}")
        self.env = env
        self.capacity = capacity
        self.aging_s = aging_s
        self._users: List[PriorityRequest] = []
        #: Without aging: a heap of (priority, seq, request).  With
        #: aging: a plain arrival-ordered list of (priority, seq,
        #: enqueued_at, request) scanned at grant time (waiting sets are
        #: small; the effective priority is time-dependent, so a static
        #: heap cannot order them).
        self._waiting: List[Tuple] = []
        self._seq = 0
        #: Cooperative-preemption counter (marks issued, not completions).
        self.preempt_marks = 0

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    @property
    def users(self) -> Tuple[PriorityRequest, ...]:
        return tuple(self._users)

    def effective_priority(self, priority: float, enqueued_at: float) -> float:
        """The aged priority of a waiter at the current sim time."""
        if self.aging_s is None:
            return priority
        return priority - (self.env.now - enqueued_at) / self.aging_s

    def request(
        self, priority: int = 0, preemptible: bool = False, preempt: bool = False
    ) -> PriorityRequest:
        req = PriorityRequest(self.env, self, priority, preemptible)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
            return req
        if self.aging_s is None:
            heapq.heappush(self._waiting, (priority, self._seq, req))
        else:
            self._waiting.append((priority, self._seq, self.env.now, req))
        self._seq += 1
        if preempt:
            self._mark_for_preemption(priority)
        return req

    def _mark_for_preemption(self, priority: int) -> None:
        """Flag the least urgent preemptible holder worse than ``priority``."""
        victim = None
        for holder in self._users:
            if not holder.preemptible or holder.preempt_requested:
                continue
            if holder.priority <= priority:
                continue
            if victim is None or holder.priority > victim.priority:
                victim = holder
        if victim is not None:
            victim.preempt_requested = True
            self.preempt_marks += 1

    def _pop_next(self) -> PriorityRequest:
        """Remove and return the most urgent waiter (aging-aware)."""
        if self.aging_s is None:
            return heapq.heappop(self._waiting)[2]
        best_idx = 0
        best_key = None
        for idx, (priority, seq, enqueued_at, _) in enumerate(self._waiting):
            key = (self.effective_priority(priority, enqueued_at), seq)
            if best_key is None or key < best_key:
                best_key, best_idx = key, idx
        return self._waiting.pop(best_idx)[3]

    def release(self, request: PriorityRequest) -> None:
        if request in self._users:
            self._users.remove(request)
        else:
            for entry in self._waiting:
                if entry[-1] is request:
                    self._waiting.remove(entry)
                    if self.aging_s is None:
                        heapq.heapify(self._waiting)
                    return
            raise SimulationError("releasing a request this resource never granted")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._pop_next()
            self._users.append(nxt)
            nxt.succeed()

    def set_capacity(self, capacity: int) -> None:
        """Resize the slot count at simulation time.

        Widening grants queued waiters immediately in ``(priority,
        arrival)`` order (aging-aware); narrowing only lowers the
        ceiling -- holders are never revoked, the pool shrinks as they
        release.  Used by the serving control plane's
        adaptive-concurrency actuator.
        """
        if capacity < 1:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        while self._waiting and len(self._users) < capacity:
            nxt = self._pop_next()
            self._users.append(nxt)
            nxt.succeed()


class Store:
    """An unbounded FIFO queue of items with blocking ``get``."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> Any:
        """Pop the oldest queued item without blocking.

        Only items actually sitting in the queue can be popped; raises
        :class:`SimulationError` when empty (callers check ``size``).
        Used by the sharded scheduler's work redistribution, which moves
        queued-but-undispatched items between shard queues.
        """
        if not self._items:
            raise SimulationError("get_nowait on an empty store")
        return self._items.popleft()

    @property
    def size(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[Any, ...]:
        """Snapshot of the queued (undispatched) items, oldest first.

        Read-only view for backlog inspection -- the routing layer
        prices a shard's queue by summing item costs without disturbing
        FIFO order.
        """
        return tuple(self._items)
