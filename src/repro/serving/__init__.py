"""Online serving: the paper's Fig. 3 middleware under sustained load.

The paper's middleware stack (Fig. 3) puts a *run-time scheduler*
between the application module (where inference requests arrive) and
the execution engines: it monitors cluster status, runs the DSE agent,
and hands distribution decisions to the communication module.  The
evaluation scenarios only ever exercise it with four-model staircases
(Fig. 6) and fixed-interval streams (Fig. 7); this package is that
middleware grown into an online serving layer for open-loop concurrent
traffic.  It has one dispatcher,
:class:`~repro.serving.sharded.ShardedScheduler`:

- per-shard **admission queues** buffer arrivals while the cluster is
  busy (application module -> scheduler hand-off in Fig. 3), spread
  over ``num_shards`` leader dispatchers by hash or model affinity,
  with idle shards woken by work stealing;
- backlogs are **co-planned in one pass**
  (:meth:`~repro.core.hidp.HiDPStrategy.plan_batch`): every distinct
  model in the backlog prices its candidate depth cuts through a single
  batched share-DP sweep, and local-tier decisions are shared across
  identical processors;
- when the backlog snapshot **drifts** past the load bucket a batch
  plan assumed, the remaining tail of the batch is re-co-planned in one
  pass under the fresh snapshot (the Fig. 4 leader FSM re-entering
  ``explore`` when cluster status changes);
- a bounded, priority-aware **in-flight window**
  (:class:`~repro.sim.resources.PriorityResource`: urgent-first grants,
  FIFO within a class, cooperative preemption of in-flight work at plan
  segment boundaries) applies backpressure, so the admission queues --
  not the simulated hardware -- absorb overload;
- per-station *weighted* load snapshots (``load_view="weighted"``) let
  drift detection see congestion while a minor core idles, and
  measured-bucket **planning overhead** is charged on the leader's
  scheduler CPU, making DSE cost visible to serving latency (the
  paper's ~15 ms bound) instead of planning for free.

:class:`~repro.serving.sharded.OnlineScheduler` is its one-shard preset
(``num_shards=1``, planning charging off, the ``min`` load view): the
single-leader control loop, with the same constructor it always had.
On a priority-free stream it serves FIFO; a stream that carries
priorities gets urgent-first slot grants and preemption.

Every run returns a :class:`~repro.serving.result.ServingResult` with
latency percentiles (overall and per priority class), SLO attainment,
wall + steady-state throughput, and scheduler counters whose ledger
the scheduler reconciles before returning.

Physical leaders (ISSUE 5): the :class:`ShardedScheduler` additionally
accepts ``leader_policy="distributed"``, pinning a *physical* leader
device per shard (:meth:`~repro.platform.cluster.Cluster.shard_leaders`).
Each dispatcher plans from its own leader (``leader=`` threaded through
:meth:`~repro.core.strategy.Strategy.plan_batch` down to the executor
models), charges planning on that leader's scheduler CPU, and executes
plans whose probe/fan-out/merge FSM runs from that board
(:attr:`~repro.core.plans.ExecutionPlan.leader`).  On light-model
streams, whose plans are leader-local, this turns N shards into true
horizontal scale-out across boards (the BENCH_serving leader gate);
the default ``"shared"`` policy keeps every legacy schedule
byte-identical, pinned by the cross-hatch matrix in
``tests/integration/test_hatch_matrix.py``.

Hostile conditions (ISSUE 6): the scheduler accepts
``faults=PerturbationProcess(...)`` (seeded device churn, transient
link degradation, DVFS throttling -- :mod:`repro.faults`) and
``retry=RetryPolicy(...)``.  Mid-plan device loss surfaces from the
executor as a structured
:class:`~repro.faults.DeviceLostError`; the scheduler charges an
exponential backoff as queue delay and re-admits through the normal
dispatcher path (planning against the fresh availability signature
avoids the lost device), sheds past ``max_retries`` or over the
pressure threshold, and accounts for everything in
:class:`~repro.serving.result.ServingResult` (``failures ==
retries + shed``; every request completes once XOR is shed).  A
zero-event process leaves every schedule byte-identical -- the fault
dimension of the cross-hatch matrix.

Layered serving stack (ISSUE 7): the serving subsystem is split into
explicit layers -- **admission** (source processes) -> **routing**
(:mod:`repro.serving.routing`: a pluggable
:class:`~repro.serving.routing.Router` deciding which shard queue an
arrival joins) -> **per-shard dispatch** (batch formation, co-planning,
slot backpressure) -> **execution** (the plan-executor FSM).
``router=None`` follows the legacy ``assignment`` policies
byte-identically through :class:`~repro.serving.routing.HashRouter` /
:class:`~repro.serving.routing.AffinityRouter`;
``router="clustered"`` adds workload-clustered shard specialization
(:mod:`repro.serving.specialize`): every ``epoch_s`` the
:class:`~repro.serving.specialize.ShardSpecializer` clusters the
observed models by Jaccard similarity over their
:meth:`~repro.dnn.segment_table.SegmentTable.signature` tokens, assigns
each shard a specialty (partitioning the plan cache per shard), and the
cost-aware :class:`~repro.serving.routing.ClusteredRouter` admits each
request to its specialist shard unless its backlog-cost exceeds the
spill threshold.  ``leader_policy="epoch"`` additionally re-elects
every shard's physical leader at each epoch boundary under the live
load snapshot
(:meth:`~repro.platform.cluster.Cluster.reelect_shard_leaders`).
Routing decisions, spills, cold placements and epoch/re-election
history land in :class:`~repro.serving.result.ServingResult` via
:class:`~repro.metrics.serving.RoutingStats`.

Self-protecting serving (ISSUE 9): the scheduler accepts
``control=ControlPolicy(...)`` (:mod:`repro.serving.control`), arming a
deterministic SLO-driven control plane.  A
:class:`~repro.serving.control.Controller` wakes every ``interval_s``
of *simulation* time, reads the streaming signals, and actuates:

===============================  ==========================  ===========================
signal                           decision (ControlTrace)     actuation
===============================  ==========================  ===========================
windowed p99 vs ``slo_s``        ``widen`` / ``narrow``      AIMD in-flight window
                                                             (``set_capacity``)
queue depth per active shard     ``spawn`` / ``merge``       elastic shard prefix +
                                                             leader re-election
door pressure                    ``reject_pressure`` /       admission control at the
                                 ``downgrade_at_door``       door (before routing)
cluster-weighted backlog vs SLO  ``reject_deadline``         deadline shedding
``DeviceLostError`` bursts       ``trip`` / ``probe`` /      per-shard circuit breaker
                                 ``restore`` / ``reopen``    (router routes around)
battery charge slope             ``planned_drain``           pre-emptive migration off
                                                             a draining device
===============================  ==========================  ===========================

Every actuation is recorded in
:class:`~repro.serving.control.ControlTrace` -- exact counters at both
trace levels, the per-decision log (``trace.decisions``) at
``trace_level="full"`` -- and reconciled in ``ServingResult``: rejected
requests land in the new ``rejected`` bucket (disjoint from ``shed``,
so ``failures == retries + shed`` is untouched and ``count + shed +
rejected == len(requests)``).  ``control=None`` and
``ControlPolicy.noop()`` leave every schedule byte-identical.  The
fault stream gains battery drain
(:class:`~repro.platform.power.BatteryModel` entries on
``PerturbationProcess.batteries``): charge drains with busy time and
DVFS state, and a device crossing its floor leaves the cluster as a
planned, permanent departure.  Retry backoff gains seeded
deterministic jitter (``RetryPolicy(jitter=...)``) to de-stampede
correlated-failure re-admissions.

Large-scale streams (ISSUE 4): the scheduler accepts
``trace_level="aggregate"`` to record O(1) streaming trace aggregates
(running busy totals, completion/byte counters) instead of
materialising every busy interval, FLOPs completion, transfer and FSM
transition -- the event schedule and every reported latency are
byte-identical either way, only the per-entry views disappear.  The
simulation itself runs on the optimized engine drain
(``REPRO_SIM_FASTPATH=0`` restores the seed engine loop and turns off
the executor's compiled-local memo and the dispatcher's load memo, so
every memoised value is recomputed) and planning on the batched DSE kernels (``REPRO_DSE_FASTPATH=0`` restores the pure-Python
reference); ``benchmarks/test_bench_engine.py`` pins schedule
equivalence across all of these on a 5000-request stream and gates the
combined speedup.
"""

from repro.faults import (
    DEGRADE_DOWNGRADE,
    DEGRADE_NONE,
    DEGRADE_SHED,
    DeviceLostError,
    FaultTrace,
    PerturbationProcess,
    RetryPolicy,
)
from repro.serving.control import (
    ADMISSION_DOWNGRADE,
    ADMISSION_NONE,
    ADMISSION_REJECT,
    ControlDecision,
    Controller,
    ControlPolicy,
    ControlTrace,
    ShardBreaker,
)
from repro.serving.routing import (
    ROUTER_AFFINITY,
    ROUTER_CLUSTERED,
    ROUTER_HASH,
    AffinityRouter,
    ClusteredRouter,
    HashRouter,
    Router,
    resolve_router,
)
from repro.serving.result import RunCheckpoint, ServedRequest, ServingResult
from repro.serving.sharded import (
    ASSIGN_HASH,
    ASSIGN_MODEL,
    LEADERS_DISTRIBUTED,
    LEADERS_EPOCH,
    LEADERS_SHARED,
    PLANNING_BUCKET,
    PLANNING_OFF,
    OnlineScheduler,
    ShardedScheduler,
)
from repro.serving.specialize import ShardSpecializer, SpecializationPlan

__all__ = [
    "OnlineScheduler",
    "RunCheckpoint",
    "ServedRequest",
    "ServingResult",
    "ShardedScheduler",
    "ControlPolicy",
    "Controller",
    "ControlTrace",
    "ControlDecision",
    "ShardBreaker",
    "ADMISSION_NONE",
    "ADMISSION_REJECT",
    "ADMISSION_DOWNGRADE",
    "Router",
    "HashRouter",
    "AffinityRouter",
    "ClusteredRouter",
    "resolve_router",
    "ShardSpecializer",
    "SpecializationPlan",
    "ROUTER_HASH",
    "ROUTER_AFFINITY",
    "ROUTER_CLUSTERED",
    "ASSIGN_HASH",
    "ASSIGN_MODEL",
    "LEADERS_DISTRIBUTED",
    "LEADERS_EPOCH",
    "LEADERS_SHARED",
    "PLANNING_BUCKET",
    "PLANNING_OFF",
    "DEGRADE_DOWNGRADE",
    "DEGRADE_NONE",
    "DEGRADE_SHED",
    "DeviceLostError",
    "FaultTrace",
    "PerturbationProcess",
    "RetryPolicy",
]
