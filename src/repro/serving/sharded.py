"""The serving dispatcher: sharding, priorities, preemption, work stealing.

:class:`ShardedScheduler` is the repo's one run-time scheduler (the
paper's Fig. 3 middleware): it drives an open-loop request stream
through ``num_shards`` leader dispatchers.  Arrivals are partitioned
across per-shard admission queues (``hash`` spreads request ids
round-robin; ``model`` pins each model to one shard so a shard's plan
cache and batched DSE sweeps stay hot for its models).  Every
dispatcher runs the same loop -- drain a backlog batch, charge planning
overhead on the leader's scheduler CPU, co-plan in one pass, dispatch
through the shared in-flight window, re-co-plan the remaining tail when
the load snapshot drifts past the batch's bucket -- so shards pipeline
planning against each other's execution instead of serialising the
whole stream behind one dispatcher.  :class:`OnlineScheduler` is the
one-shard preset of the same loop (planning charging off, ``min`` load
view).

Scheduling policy on top of the sharding:

- **Priorities.**  The in-flight window is a
  :class:`~repro.sim.resources.PriorityResource`: slot claims are
  granted most-urgent-first (FIFO within a priority class), so a
  high-priority request admitted late still overtakes queued
  low-priority work at the slot boundary.  Within a shard batch,
  dispatch order is priority-sorted (stable, so FIFO per class).
- **Preemption.**  Slot holders are preemptible: an urgent claim that
  cannot be granted marks the least urgent in-flight holder, which
  hands its slot back cooperatively at the next plan-segment boundary
  (:class:`~repro.core.executor.PlanExecutor` checkpoints) and
  re-queues at its own priority to resume.
- **Work stealing.**  A dispatcher whose queue still holds work after
  draining a batch donates half of the remainder to shards parked on
  empty queues, so an idle leader wakes immediately instead of waiting
  for its own hash bucket to fill.
- **Planning overhead.**  ``planning_overhead="bucket"`` charges the
  strategy's DSE overhead on the leader's scheduler CPU for every
  *fresh* (model, load-bucket) plan a pass computes
  (:meth:`~repro.core.strategy.Strategy.uncached_plans`); cached
  decisions are free, mirroring the paper's middleware reusing DSE
  results.  ``"off"`` restores the legacy zero-cost planning;  a float
  charges that many seconds per planning pass.
- **Physical leaders.**  ``leader_policy="shared"`` (legacy) plans
  every shard's batches from the cluster's ``devices[0]``: one board
  sources every probe and offload fan-out and absorbs every planning
  charge.  ``"distributed"`` elects a *per-shard* physical leader
  (:meth:`~repro.platform.cluster.Cluster.shard_leaders`, round-robin
  over available devices): each dispatcher plans with its own leader
  (threaded through :meth:`~repro.core.strategy.Strategy.plan_batch`),
  charges planning on that leader's scheduler CPU, and executes plans
  whose probe/fan-out/merge FSM runs from that device -- so N-shard
  runs genuinely spread controller work and fan-out origin across
  boards instead of funnelling through one.  ``"epoch"`` starts from
  the distributed placement and *re-elects* every shard's leader at
  each specialization-epoch boundary under the live load snapshot
  (:meth:`~repro.platform.cluster.Cluster.reelect_shard_leaders`), so
  controller work migrates off boards the workload has saturated.
- **Layered routing (ISSUE 7).**  Admission routing is delegated to the
  :mod:`repro.serving.routing` layer: ``router=None`` follows the
  legacy ``assignment`` policy byte-identically
  (:class:`~repro.serving.routing.HashRouter` /
  :class:`~repro.serving.routing.AffinityRouter`), while
  ``router="clustered"`` enables workload-clustered specialization:
  a :class:`~repro.serving.specialize.ShardSpecializer` observes the
  arriving model mix, and every ``epoch_s`` simulated seconds it
  re-clusters the models by plan-structure similarity, assigns each
  shard a specialty, and hands the
  :class:`~repro.serving.routing.ClusteredRouter` a per-model shard
  ranking (specialist first, spill targets next).  In clustered mode
  each shard's plan cache is partitioned
  (``Strategy.plan_batch(partition=shard)``), so one shard's churn
  never evicts another specialist's hot cluster.

Test contract: the scheduler's behaviour switches split into
*equivalence hatches* (``REPRO_SIM_FASTPATH``, ``REPRO_DSE_FASTPATH``,
``trace_level``) that must never change a scheduled event, and
*configurations* (``planning_overhead``, ``leader_policy``) that
legitimately do.  ``tests/integration/test_hatch_matrix.py`` (the
``matrix`` marker) pins every hatch combination schedule-identical
inside every configuration, so fast-path work cannot silently fork
behaviour in an untested corner.

Ledger: ``run`` rejects duplicate request ids up front, and
``finish()`` checks the per-shard dispatch reconciliation and
``failures == retries + shed`` before returning, raising
:class:`AccountingError` when a counter disagrees.

The executable spec for the one-shard preset is an independent
fault-free FIFO single-leader loop, ``tests/serving/fifo_oracle.py``;
the equivalence tests in ``tests/serving/test_sharded.py`` pin this
dispatcher to it on priority-free streams.
"""

from __future__ import annotations

import math
from dataclasses import replace
from numbers import Integral, Real
from typing import Dict, List, Optional, Sequence

from repro.core.executor import PlanExecutor
from repro.core.hidp import HiDPStrategy
from repro.core.strategy import Strategy
from repro.dnn.graph import DNNGraph
from repro.dnn.models import available_models, build_model
from repro.faults import (
    DEGRADE_NONE,
    DEGRADE_SHED,
    DeviceLostError,
    FaultInjector,
    FaultTrace,
    PerturbationProcess,
    RetryPolicy,
)
from repro.metrics.energy import cluster_energy_j
from repro.platform.cluster import LEADER_LEAST_LOADED, Cluster, build_cluster
from repro.serving.control import (
    DOWNGRADE,
    REJECT,
    Controller,
    ControlPolicy,
)
from repro.serving.routing import ClusteredRouter, resolve_router
from repro.serving.result import (
    RunCheckpoint,
    ServedRequest,
    ServingResult,
    _segment_recorder,
)
from repro.serving.specialize import ShardSpecializer
from repro.sim.resources import PriorityResource, Store
from repro.sim.runtime import LOAD_VIEW_MIN, LOAD_VIEW_WEIGHTED, LOAD_VIEWS, SimRuntime
from repro.sim.trace import TRACE_FULL, check_trace_level
from repro.workloads.requests import InferenceRequest

#: Shard-assignment policies (legacy spelling; ``router=None`` follows
#: these through the routing layer byte-identically).
ASSIGN_HASH = "hash"
ASSIGN_MODEL = "model"
ASSIGNMENTS = (ASSIGN_HASH, ASSIGN_MODEL)

#: Planning-overhead charging modes (besides a fixed float of seconds).
PLANNING_OFF = "off"
PLANNING_BUCKET = "bucket"

#: Leader-placement policies.
LEADERS_SHARED = "shared"
LEADERS_DISTRIBUTED = "distributed"
LEADERS_EPOCH = "epoch"
LEADER_MODES = (LEADERS_SHARED, LEADERS_DISTRIBUTED, LEADERS_EPOCH)


def _check_count(field: str, value) -> None:
    """Reject a count that is not a positive integer."""
    if not isinstance(value, Integral):
        raise TypeError(f"{field} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{field} must be positive, got {value}")


def _check_seconds(field: str, value) -> None:
    """Reject a duration that is not a finite, non-negative number."""
    if not isinstance(value, Real):
        raise TypeError(f"{field} must be a number of seconds, got {value!r}")
    if not 0 <= value < math.inf:
        raise ValueError(f"{field} must be finite and >= 0, got {value}")


class AccountingError(RuntimeError):
    """A finished run's ledger does not reconcile (or never settled)."""


def _reconcile(result: ServingResult) -> None:
    """Check the ledger identities every finished run satisfies, O(shards)."""
    for shard, dispatched in enumerate(result.dispatched_by_shard):
        expected = (
            result.admitted_by_shard[shard]
            + result.readmitted_by_shard[shard]
            + result.stolen_in_by_shard[shard]
            - result.stolen_out_by_shard[shard]
        )
        if dispatched != expected:
            raise AccountingError(
                f"shard {shard} dispatched {dispatched} requests but admitted "
                f"+ readmitted + stolen_in - stolen_out = {expected}"
            )
    if result.failures != result.retries + result.shed:
        raise AccountingError(
            f"{result.failures} failures != {result.retries} retries "
            f"+ {result.shed} shed"
        )


class ShardedScheduler:
    """Serves an open-loop stream through ``num_shards`` leader dispatchers.

    One instance drives one request stream on one cluster.  All shards
    share the strategy (and therefore its plan cache), the in-flight
    window and the simulated hardware; what is sharded is the *control
    loop* -- admission queues and dispatchers -- so backlog batches
    form, plan and dispatch concurrently.
    """

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        strategy: Optional[Strategy] = None,
        num_shards: int = 2,
        max_batch: int = 16,
        max_inflight: int = 4,
        assignment: str = ASSIGN_HASH,
        load_view: str = LOAD_VIEW_WEIGHTED,
        planning_overhead=PLANNING_BUCKET,
        preemption: bool = True,
        steal_threshold: int = 2,
        trace_level: str = TRACE_FULL,
        leader_policy: str = LEADERS_SHARED,
        faults: Optional[PerturbationProcess] = None,
        retry: Optional[RetryPolicy] = None,
        router=None,
        epoch_s: float = 0.0,
        control: Optional[ControlPolicy] = None,
    ):
        _check_count("num_shards", num_shards)
        _check_count("max_batch", max_batch)
        _check_count("max_inflight", max_inflight)
        _check_count("steal_threshold", steal_threshold)
        if assignment not in ASSIGNMENTS:
            raise ValueError(f"unknown assignment {assignment!r}; known: {ASSIGNMENTS}")
        if load_view not in LOAD_VIEWS:
            raise ValueError(f"unknown load view {load_view!r}; known: {LOAD_VIEWS}")
        if isinstance(planning_overhead, str):
            if planning_overhead not in (PLANNING_OFF, PLANNING_BUCKET):
                raise ValueError(
                    f"unknown planning overhead mode {planning_overhead!r}; "
                    f"known: {PLANNING_OFF!r}, {PLANNING_BUCKET!r} or seconds"
                )
        else:
            _check_seconds("planning_overhead", planning_overhead)
        if leader_policy not in LEADER_MODES:
            raise ValueError(
                f"unknown leader policy {leader_policy!r}; known: {LEADER_MODES}"
            )
        _check_seconds("epoch_s", epoch_s)
        if leader_policy == LEADERS_EPOCH and epoch_s <= 0:
            raise ValueError("leader_policy='epoch' needs a positive epoch_s")
        self.cluster = cluster if cluster is not None else build_cluster()
        self.strategy = strategy if strategy is not None else HiDPStrategy()
        self.num_shards = num_shards
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.assignment = assignment
        self.load_view = load_view
        self.planning_overhead = planning_overhead
        self.preemption = preemption
        self.steal_threshold = steal_threshold
        self.leader_policy = leader_policy
        #: ``TRACE_AGGREGATE`` switches the run to O(1) streaming trace
        #: aggregates (large-scale streams); the event schedule and all
        #: request timings are identical either way.
        self.trace_level = check_trace_level(trace_level)
        #: Seeded fault injection + recovery policy (see
        #: :mod:`repro.faults`).  Every shard leader is protected from
        #: churn; a zero-event process leaves the run byte-identical.
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        #: The admission router (ISSUE 7).  ``None`` follows the legacy
        #: ``assignment`` policy through the routing layer.
        self.router = resolve_router(router, assignment)
        #: Specialization-epoch length [simulated s]; 0 disables the
        #: epoch driver (no respecialization, no leader re-election).
        self.epoch_s = epoch_s
        #: The SLO-driven control plane (ISSUE 9): adaptive concurrency,
        #: elastic shards, door admission control, per-shard circuit
        #: breakers and battery lookahead
        #: (:class:`~repro.serving.control.ControlPolicy`).  ``None``
        #: runs the open-loop path byte-identically.
        self.control = control

    # Internals --------------------------------------------------------------

    @property
    def charges_planning(self) -> bool:
        return self.planning_overhead != PLANNING_OFF

    def _bucket_key(self, load):
        """Quantised snapshot identity, shared with the plan cache."""
        effective = self.strategy.effective_load(load)
        if effective is None:
            return None
        return self.strategy.load_key(effective)

    def _planning_charge_s(
        self,
        graphs: Sequence[DNNGraph],
        load: Optional[Dict[str, float]],
        leader: Optional[str] = None,
        partition: Optional[int] = None,
    ) -> float:
        """Simulated seconds one planning pass costs the scheduler CPU."""
        if self.planning_overhead == PLANNING_OFF:
            return 0.0
        if self.planning_overhead == PLANNING_BUCKET:
            fresh = self.strategy.uncached_plans(
                graphs, self.cluster, load=load, leader=leader, partition=partition
            )
            return self.strategy.dse_overhead_s * fresh
        return float(self.planning_overhead)

    def shard_leaders(self) -> List[str]:
        """Initial physical leader device name per shard, per the leader
        policy (``epoch`` starts distributed and re-elects at epoch
        boundaries)."""
        if self.leader_policy in (LEADERS_DISTRIBUTED, LEADERS_EPOCH):
            return list(self.cluster.shard_leaders(self.num_shards))
        return [self.cluster.leader.name] * self.num_shards

    # Entry point -------------------------------------------------------------

    def run(
        self,
        requests: Sequence[InferenceRequest],
        checkpoint_at_s: Optional[float] = None,
    ) -> ServingResult:
        """Serve the full stream; returns aggregated serving metrics.

        ``checkpoint_at_s`` pauses the event loop once the clock
        reaches that simulated time and returns a
        :class:`~repro.serving.result.RunCheckpoint` instead;
        ``resume()`` on the handle drains the rest of the run to a
        byte-identical result.
        """
        if not requests:
            raise ValueError("no requests to serve")
        # Every per-request ledger (attempts, failures, segments, shed
        # and rejected ids) keys on the id, so ids must be unique; and a
        # model the zoo cannot build must fail here, not in a dispatcher.
        seen = set()
        models = frozenset(available_models())
        for request in requests:
            if request.request_id in seen:
                raise ValueError(f"duplicate request_id {request.request_id}")
            seen.add(request.request_id)
            if request.model not in models:
                raise ValueError(
                    f"request {request.request_id}: unknown model {request.model!r}; "
                    f"known: {sorted(models)}"
                )
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        runtime = SimRuntime(self.cluster, trace_level=self.trace_level)
        leaders = self.shard_leaders()
        injector = None
        if self.faults is not None:
            # Order-preserving dedup: tuple(set(...)) would hand the
            # protected list hash-randomised ordering across runs.
            protected = tuple(dict.fromkeys(leaders))
            injector = FaultInjector(
                runtime,
                self.cluster,
                self.faults.events(self.cluster, protected=protected),
                batteries=self.faults.battery_map(protected),
                battery_sample_s=self.faults.battery_sample_s,
                battery_horizon_s=self.faults.horizon_s,
            )
            injector.arm()
        # A zero-event process never arms: no driver process, no gates,
        # no trace -- the degenerate pin rides this flag being False.
        fault_mode = injector is not None and injector.armed
        retry = self.retry
        fault_trace = FaultTrace(self.trace_level) if fault_mode else None
        executor = PlanExecutor(runtime, charge_explore=not self.charges_planning)
        env = runtime.env
        queues = [Store(env) for _ in range(self.num_shards)]
        inflight = PriorityResource(env, capacity=self.max_inflight)
        # Routing layer: the specializer prices queued backlogs (GFLOPs
        # of queued work) for load-aware routers and, in clustered mode,
        # feeds the epoch respecialization.  Neither touches the event
        # schedule, so load-blind routers stay byte-identical to the
        # pre-refactor closures.
        specializer = ShardSpecializer(self.num_shards)

        def backlog_of(shard: int) -> float:
            return sum(
                specializer.cost_of(item.model) for item in queues[shard].items
            )

        router = self.router
        stats = router.bind(self.num_shards, backlog_of)
        clustered = isinstance(router, ClusteredRouter)
        served: List[ServedRequest] = []
        idle = [False] * self.num_shards
        counters = {
            "batches": 0,
            "replans": 0,
            "max_batch": 0,
            "steals": 0,
            "preemptions": 0,
            "planning_s": 0.0,
        }
        admitted = [0] * self.num_shards
        dispatched = [0] * self.num_shards
        stolen_in = [0] * self.num_shards
        stolen_out = [0] * self.num_shards
        readmitted = [0] * self.num_shards
        #: request_id -> upcoming dispatch attempt number (absent = 1).
        attempt_of: Dict[int, int] = {}
        #: request_id -> sim time of its first mid-plan failure.
        first_failure_at: Dict[int, float] = {}
        shed_ids: List[int] = []
        rejected_ids: List[int] = []
        #: request_id -> plan-segment boundaries crossed (checkpoint
        #: runs only; the recorder hook adds no events).
        segments: Optional[Dict[int, int]] = (
            {} if checkpoint_at_s is not None else None
        )

        controller = None
        if self.control is not None:
            controller = Controller(
                self.control,
                env,
                trace_level=self.trace_level,
                inflight=inflight,
                router=router,
                num_shards=self.num_shards,
            )
        # Leaders can move after fault arming (epoch re-election, or an
        # elastic rescale under the controller): such leaders are not
        # churn-protected, so the dispatcher re-checks availability.
        dynamic_leaders = self.leader_policy == LEADERS_EPOCH or (
            controller is not None
            and self.control.elastic
            and self.leader_policy != LEADERS_SHARED
        )

        def drain_shard(shard: int) -> int:
            """Move ``shard``'s queued items to healthy shards (breaker
            trip / elastic merge).  The moves ride the steal ledger, so
            the per-shard reconciliation stays exact.  With no healthy
            target the items stay put (admission cannot drop work that
            is already admitted)."""
            queue = queues[shard]
            moved = 0
            targets = [
                other
                for other in range(self.num_shards)
                if other != shard and router.allowed(other)
            ]
            if not targets:
                return 0
            while queue.size > 0:
                taker = min(targets, key=lambda other: (queues[other].size, other))
                queues[taker].put(queue.get_nowait())
                idle[taker] = False  # its parked getter wakes with this item
                counters["steals"] += 1
                stolen_out[shard] += 1
                stolen_in[taker] += 1
                moved += 1
            return moved

        def source():
            for request in ordered:
                if request.arrival_s > env.now:
                    yield env.timeout(request.arrival_s - env.now)
                if controller is not None:
                    verdict = controller.admit(request)
                    if verdict == REJECT:
                        rejected_ids.append(request.request_id)
                        continue
                    if verdict == DOWNGRADE:
                        request = replace(
                            request,
                            priority=request.priority
                            + self.control.admission_downgrade_by,
                        )
                specializer.observe(request.model)
                shard = router.route(request)
                admitted[shard] += 1
                queues[shard].put(request)

        def readmit(request: InferenceRequest, delay_s: float):
            if delay_s > 0:
                yield env.timeout(delay_s)
            shard = router.route(request)
            readmitted[shard] += 1
            idle[shard] = False  # its parked getter wakes with this item
            queues[shard].put(request)

        def handle_failure(
            request: InferenceRequest, lost: DeviceLostError, shard: int
        ) -> None:
            """Retry, downgrade or shed one failed request (the policy)."""
            attempt = attempt_of.get(request.request_id, 1)
            fault_trace.record_failure(
                request.request_id, lost.device, lost.segment, lost.time_s, attempt
            )
            first_failure_at.setdefault(request.request_id, lost.time_s)
            if controller is not None:
                # Feed the shard's breaker first: a failure burst trips
                # it whatever the retry policy then decides.
                controller.observe_failure(shard, dispatched[shard])
            if attempt > retry.max_retries:
                shed_ids.append(request.request_id)
                fault_trace.record_shed(request.request_id)
                return
            again = request
            if retry.degradation != DEGRADE_NONE:
                pressure = sum(queue.size for queue in queues) + inflight.queue_length
                if pressure > retry.pressure_threshold:
                    if retry.degradation == DEGRADE_SHED:
                        shed_ids.append(request.request_id)
                        fault_trace.record_shed(request.request_id)
                        return
                    # Downgrade: re-admit at a worse priority class (the
                    # PriorityResource then grants it after healthier
                    # traffic) instead of dropping the work.
                    again = replace(
                        request,
                        priority=request.priority + retry.downgrade_priority_by,
                    )
                    fault_trace.record_downgrade(request.request_id)
            attempt_of[request.request_id] = attempt + 1
            delay = retry.backoff_s(attempt, request.request_id)
            fault_trace.record_retry(request.request_id, env.now + delay)
            env.process(readmit(again, delay))

        def serve(request: InferenceRequest, plan, slot, replanned: bool, shard: int):
            holder = {"slot": slot}

            def checkpoint():
                if holder["slot"].preempt_requested:
                    # Segment boundary: hand the slot to the urgent
                    # waiter and re-queue at our own priority to resume.
                    counters["preemptions"] += 1
                    inflight.release(holder["slot"])
                    resumed = inflight.request(
                        priority=request.priority, preemptible=True
                    )
                    holder["slot"] = resumed
                    yield resumed

            hook = checkpoint if self.preemption else None
            if segments is not None:
                # Compose: count the boundary, then run the preemption
                # hand-off (the recorder itself adds no events).
                hook = _segment_recorder(segments, request.request_id, inner=hook)
            try:
                try:
                    result = yield from executor.execute(
                        request,
                        plan,
                        checkpoint=hook,
                    )
                except DeviceLostError as lost:
                    if fault_trace is None:
                        raise
                    handle_failure(request, lost, shard)
                    return
                attempts = attempt_of.get(request.request_id, 1) if fault_mode else 1
                served.append(
                    ServedRequest(
                        request=request,
                        result=result,
                        replanned=replanned,
                        attempts=attempts,
                    )
                )
                if controller is not None:
                    controller.observe_completion(env.now - request.arrival_s, shard)
                if fault_trace is not None:
                    first = first_failure_at.get(request.request_id)
                    if first is not None:
                        fault_trace.record_recovery(
                            request.request_id, env.now - first, attempts
                        )
            finally:
                inflight.release(holder["slot"])

        def donate(shard: int) -> None:
            """Shed half the leftover backlog to shards parked idle."""
            queue = queues[shard]
            if queue.size < self.steal_threshold:
                return
            takers = [
                other
                for other in range(self.num_shards)
                if idle[other]
                and (controller is None or controller.dispatch_ok(other))
            ]
            if not takers:
                return
            movable = queue.size // 2
            for moved in range(movable):
                taker = takers[moved % len(takers)]
                queues[taker].put(queue.get_nowait())
                idle[taker] = False  # its parked getter wakes with this item
                counters["steals"] += 1
                stolen_out[shard] += 1
                stolen_in[taker] += 1

        def steal(shard: int) -> int:
            """Pull half the most backlogged peer queue onto ``shard``.

            The donation path above only runs when a *busy* dispatcher
            finishes forming a batch -- but a dispatcher spends most of
            its loop parked on in-flight slots, during which its queue
            grows while idle peers sleep.  Stealing from the consumer
            side closes that gap: a dispatcher about to park instead
            takes work from the deepest queue at or past the steal
            threshold (ties to the lowest shard index, deterministic).
            A shard the control plane sidelined (breaker open, or past
            the elastic active prefix) must not pull work onto itself.
            """
            if controller is not None and not controller.dispatch_ok(shard):
                return 0
            queue = queues[shard]
            victim = None
            depth = 0
            for other in range(self.num_shards):
                if other == shard:
                    continue
                size = queues[other].size
                if size >= self.steal_threshold and size > depth:
                    victim, depth = other, size
            if victim is None:
                return 0
            moved = depth // 2
            for _ in range(moved):
                queue.put(queues[victim].get_nowait())
            counters["steals"] += moved
            stolen_out[victim] += moved
            stolen_in[shard] += moved
            return moved

        # The load snapshot and its bucket are pure functions of (clock,
        # commitment version); memoise the pair per state token so the
        # per-dispatch drift check costs one lookup instead of a snapshot
        # and a quantisation pass.  Rides the sim fast path, so the
        # reference configuration recomputes both every time.
        memoise_loads = env._fast
        last = [None, None]  # [token, (load, bucket)]

        def load_and_bucket():
            token = (env.now, runtime._load_version)
            if memoise_loads and last[0] == token:
                return last[1]
            load = runtime.load_snapshot(view=self.load_view)
            pair = (load, self._bucket_key(load))
            if memoise_loads:
                last[:] = token, pair
            return pair

        def dispatcher(shard: int):
            queue = queues[shard]
            # Clustered mode partitions the plan cache per shard, so a
            # specialist's hot cluster survives other shards' churn.
            partition = shard if clustered else None
            while True:
                if queue.size == 0 and not steal(shard):
                    idle[shard] = True
                first = yield queue.get()
                idle[shard] = False
                batch = [first]
                while queue.size > 0 and len(batch) < self.max_batch:
                    item = yield queue.get()
                    batch.append(item)
                # Epoch re-election moves leaders between batches, so
                # the leader binds per batch (static policies never
                # mutate ``leaders``: byte-identical to the old
                # loop-entry binding).
                leader = leaders[shard]
                if (
                    dynamic_leaders
                    and fault_mode
                    and not self.cluster.is_available(leader)
                ):
                    # A dynamically (re-)elected leader died mid-epoch:
                    # re-elect immediately (a dispatcher cannot plan from
                    # a dead brain, and leaders elected after arming --
                    # epoch boundaries, elastic rescales -- are not
                    # churn-protected).
                    leader = self.cluster.elect_leader(
                        LEADER_LEAST_LOADED,
                        load=runtime.load_snapshot(view=self.load_view),
                    ).name
                    leaders[shard] = leader
                counters["batches"] += 1
                counters["max_batch"] = max(counters["max_batch"], len(batch))
                donate(shard)
                # Urgent-first dispatch order; stable, so FIFO per class.
                batch.sort(key=lambda request: request.priority)
                load, batch_bucket = load_and_bucket()
                batch_avail = (
                    self.cluster.availability_signature() if fault_mode else None
                )
                graphs = [build_model(request.model) for request in batch]
                charge = self._planning_charge_s(
                    graphs, load, leader=leader, partition=partition
                )
                if charge > 0:
                    counters["planning_s"] += charge
                    yield from executor.charge_overhead(leader, charge, "batch_dse")
                plans = self.strategy.plan_batch(
                    graphs, self.cluster, load=load, leader=leader, partition=partition
                )
                fresh = [False] * len(batch)
                for index, request in enumerate(batch):
                    slot = inflight.request(
                        priority=request.priority,
                        preemptible=self.preemption,
                        preempt=self.preemption,
                    )
                    yield slot  # backpressure: wait for an in-flight slot
                    current, current_bucket = load_and_bucket()
                    drifted = current_bucket != batch_bucket
                    if fault_mode and not drifted:
                        # Availability drift: a device joined or left
                        # while the batch waited -- replan the tail so
                        # dispatches never carry a plan spanning a
                        # device known to be gone.
                        drifted = self.cluster.availability_signature() != batch_avail
                    if drifted:
                        # Drifted past the batch's bucket: re-co-plan
                        # the remaining tail in one pass and adopt the
                        # fresh bucket, so one drift does not degrade
                        # the rest of the batch to per-request planning.
                        tail = graphs[index:]
                        recharge = self._planning_charge_s(
                            tail, current, leader=leader, partition=partition
                        )
                        if recharge > 0:
                            counters["planning_s"] += recharge
                            yield from executor.charge_overhead(
                                leader, recharge, "replan_dse"
                            )
                        plans[index:] = self.strategy.plan_batch(
                            tail,
                            self.cluster,
                            load=current,
                            leader=leader,
                            partition=partition,
                        )
                        for late in range(index, len(batch)):
                            fresh[late] = True
                        batch_bucket = current_bucket
                        if fault_mode:
                            batch_avail = self.cluster.availability_signature()
                        counters["replans"] += 1
                    dispatched[shard] += 1
                    env.process(serve(request, plans[index], slot, fresh[index], shard))

        def epoch_driver():
            # Ticks every epoch_s until the stream settles: each tick
            # re-clusters the observed workload, hands the clustered
            # router its fresh specialist ranking, and (under the epoch
            # leader policy) re-elects every shard's physical leader
            # under the live load snapshot.  Parked dispatchers do not
            # keep the simulation alive, but this timeout does, so the
            # driver checks settlement first and stops ticking once all
            # requests are served, shed or rejected.
            while True:
                yield env.timeout(self.epoch_s)
                if len(served) + len(shed_ids) + len(rejected_ids) >= len(ordered):
                    break
                plan = specializer.respecialize()
                if clustered:
                    router.adopt(plan.ranking)
                reelected = False
                if self.leader_policy == LEADERS_EPOCH:
                    elected = self.cluster.reelect_shard_leaders(
                        self.num_shards,
                        load=runtime.load_snapshot(view=self.load_view),
                    )
                    reelected = list(elected) != leaders
                    leaders[:] = elected
                stats.record_epoch(env.now, leaders, plan.specialty_models, reelected)

        def rescale(old: int, new: int) -> None:
            """Elastic scale step: re-elect the active prefix's leaders
            through the PR 7 machinery (shared leadership has nothing to
            re-elect -- every shard plans from ``devices[0]``)."""
            del old
            if self.leader_policy == LEADERS_SHARED:
                return
            elected = self.cluster.reelect_shard_leaders(
                new, load=runtime.load_snapshot(view=self.load_view)
            )
            leaders[:new] = elected

        if controller is not None:

            def est_wait_s() -> float:
                # Capacity-weighted backlog over every available
                # station: a min over devices would always find an
                # idle weak core and the deadline door would never
                # close, so congestion on the cores that do the work
                # has to dominate the estimate.
                total = 0.0
                weight = 0.0
                for device in self.cluster.devices:
                    if not self.cluster.is_available(device.name):
                        continue
                    for station in runtime.stations_of(device.name):
                        total += station.compute_weight * station.backlog_seconds
                        weight += station.compute_weight
                return total / weight if weight > 0.0 else 0.0

            controller.bind(
                pressure_of=lambda: sum(queue.size for queue in queues)
                + inflight.queue_length,
                queue_depth=lambda: sum(queue.size for queue in queues),
                est_wait_s=est_wait_s,
                drain_shard=drain_shard,
                rescale=rescale,
                injector=injector if fault_mode else None,
            )

        def control_driver():
            # The controller's wake loop: same settlement idiom as the
            # epoch driver, so its timer never outlives the stream.
            while True:
                yield env.timeout(self.control.interval_s)
                if len(served) + len(shed_ids) + len(rejected_ids) >= len(ordered):
                    break
                controller.wake()

        env.process(source())
        for shard in range(self.num_shards):
            env.process(dispatcher(shard))
        if self.epoch_s > 0:
            env.process(epoch_driver())
        if controller is not None:
            env.process(control_driver())

        def finish() -> ServingResult:
            env.run()
            settled = len(served) + len(shed_ids) + len(rejected_ids)
            if settled != len(ordered):
                raise AccountingError(
                    f"{len(ordered) - settled} requests never completed (deadlock?)"
                )
            served.sort(key=lambda record: record.request.request_id)
            makespan = max((record.completed_s for record in served), default=0.0)
            energy_by_device = cluster_energy_j(
                self.cluster, runtime.busy, (0.0, makespan)
            )
            result = build_result(makespan, energy_by_device)
            _reconcile(result)
            return result

        def build_result(makespan, energy_by_device) -> ServingResult:
            return ServingResult(
                strategy=self.strategy.name,
                served=served,
                makespan_s=makespan,
                energy_j=sum(energy_by_device.values()),
                energy_by_device=energy_by_device,
                network_bytes=runtime.transfer_log.total_bytes,
                total_flops=runtime.flops_log.total_flops,
                busy=runtime.busy,
                batches=counters["batches"],
                replans=counters["replans"],
                max_batch_observed=counters["max_batch"],
                shards=self.num_shards,
                steals=counters["steals"],
                preemptions=counters["preemptions"],
                leader_devices=tuple(leaders),
                admitted_by_shard=tuple(admitted),
                dispatched_by_shard=tuple(dispatched),
                stolen_in_by_shard=tuple(stolen_in),
                stolen_out_by_shard=tuple(stolen_out),
                planning_charged_s=counters["planning_s"],
                sim_events=env.scheduled_events,
                failures=fault_trace.failures if fault_trace is not None else 0,
                retries=fault_trace.retries if fault_trace is not None else 0,
                shed=len(shed_ids),
                downgraded=fault_trace.downgraded if fault_trace is not None else 0,
                fault_events=injector.applied if injector is not None else 0,
                readmitted_by_shard=tuple(readmitted),
                shed_requests=(
                    tuple(sorted(shed_ids)) if self.trace_level == TRACE_FULL else ()
                ),
                faults=fault_trace,
                router=router.name,
                epochs=stats.epochs,
                spilled=stats.spilled,
                cold_routed=stats.cold,
                leader_reelections=stats.reelections,
                routing=stats,
                rejected=len(rejected_ids),
                rejected_requests=(
                    tuple(sorted(rejected_ids)) if self.trace_level == TRACE_FULL else ()
                ),
                control=controller.trace if controller is not None else None,
            )

        if checkpoint_at_s is not None:
            # Pause: drain the exact event prefix up to the requested
            # time, capture the state, and hand control back.  finish()
            # later continues from the same heap, so the pause never
            # perturbs the schedule.
            env.run(until=checkpoint_at_s)
            return RunCheckpoint(
                runtime=runtime,
                snapshot=runtime.snapshot(),
                finish=finish,
                served_count=len(served),
                segments=dict(segments),
            )
        return finish()


class OnlineScheduler(ShardedScheduler):
    """The single-leader preset: one shard, no planning charge, ``min``
    load view.

    One dispatcher drains the admission queue into backlog batches (up
    to ``max_batch``), co-plans each batch in one pass, and dispatches
    through a ``max_inflight`` backpressure window, re-co-planning the
    batch tail on load drift.  Latency is measured from arrival, so
    admission queueing counts against the SLO.  Streams that carry
    priorities get urgent-first slot grants, priority-sorted batches
    and cooperative preemption; priority-free streams are served FIFO.

    ``faults``, ``retry``, ``router`` and ``control`` behave as on
    :class:`ShardedScheduler`; the leader (``devices[0]``) is protected
    from churn, and with one shard the elastic-shard actuator has
    nothing to scale.
    """

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        strategy: Optional[Strategy] = None,
        max_batch: int = 16,
        max_inflight: int = 4,
        trace_level: str = TRACE_FULL,
        faults: Optional[PerturbationProcess] = None,
        retry: Optional[RetryPolicy] = None,
        router=None,
        control: Optional[ControlPolicy] = None,
    ):
        super().__init__(
            cluster=cluster,
            strategy=strategy,
            num_shards=1,
            max_batch=max_batch,
            max_inflight=max_inflight,
            load_view=LOAD_VIEW_MIN,
            planning_overhead=PLANNING_OFF,
            trace_level=trace_level,
            faults=faults,
            retry=retry,
            router=router,
            control=control,
        )
