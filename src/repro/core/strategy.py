"""Strategy interface and shared executor-model helpers.

A strategy turns (DNN graph, cluster state) into an
:class:`~repro.core.plans.ExecutionPlan`.  HiDP and all three baselines
implement this interface, so the framework and the experiment harness
treat them interchangeably.

Physical leaders (ISSUE 5): every planning entry point accepts a
``leader`` device name.  The leader is the executor with free
communication and zero fixed cost in the global search
(:func:`device_executor_models`), the pipeline source, the merge host,
and the node whose scheduler CPU pays the DSE overhead; plans record it
(:attr:`~repro.core.plans.ExecutionPlan.leader`) so the executor FSM
runs from the same device the search assumed.  ``leader=None`` resolves
to the cluster's default leader (``devices[0]``), reproducing every
legacy plan and schedule byte-identically; the plan cache keys on the
resolved leader, so per-shard leaders never collide in the cache.
"""

from __future__ import annotations

import abc
import math
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.dp import ExecutorModel
from repro.core.memo import Memo
from repro.core.plans import ExecutionPlan
from repro.dnn.graph import DNNGraph
from repro.dnn.layers import LAYER_CLASSES
from repro.platform.cluster import Cluster
from repro.platform.device import Device

#: Pseudo-infinite communication rate for the executor already holding
#: the data (the leader in global searches).
LOCAL_COMM_RATE = 1e18

AGGREGATE_ALL = "all"
AGGREGATE_DEFAULT = "default"


def device_executor_models(
    cluster: Cluster,
    devices: Sequence[Device],
    aggregation: str = AGGREGATE_ALL,
    leader_index: int = 0,
    load: Optional[Mapping[str, float]] = None,
    leader: Optional[str] = None,
) -> List[ExecutorModel]:
    """Global-tier executor models, one per device.

    ``aggregation`` selects how a node's capacity is represented:

    - ``all``: sum of all processors' per-class rates.  This is HiDP's
      heterogeneity-aware view (the node will exploit every core).
    - ``default``: rates of the default (TensorFlow-chosen) processor
      only -- the misrepresented capacity the paper criticises, used by
      the global-only baselines.

    ``load`` maps device names to outstanding-backlog seconds; a loaded
    node's fixed cost grows accordingly, steering new work away from
    congested nodes (the run-time scheduler's cluster monitoring).

    The leader -- the device already holding the input data, which
    therefore communicates for free and pays no fixed cost -- may sit
    at *any* index: name it with ``leader`` (which overrides
    ``leader_index``) or index it with ``leader_index`` (default 0, the
    historical behaviour).
    """
    if aggregation not in (AGGREGATE_ALL, AGGREGATE_DEFAULT):
        raise ValueError(f"unknown aggregation {aggregation!r}")
    if leader is not None:
        names = [device.name for device in devices]
        try:
            leader_index = names.index(leader)
        except ValueError:
            raise ValueError(f"leader {leader!r} not among devices {names}") from None
    elif not 0 <= leader_index < len(devices):
        raise ValueError(f"leader index {leader_index} out of range for {len(devices)} devices")
    models = []
    for index, device in enumerate(devices):
        if aggregation == AGGREGATE_ALL:
            rates = dict(device.node_rates)
        else:
            rates = {cls: device.default_processor.rate(cls) for cls in LAYER_CLASSES}
        if index == leader_index:
            comm, fixed = LOCAL_COMM_RATE, 0.0
        else:
            comm = cluster.beta(device)
            fixed = cluster.network.latency_s + device.default_processor.setup_time_s
        if load is not None:
            fixed += load.get(device.name, 0.0)
        if aggregation == AGGREGATE_ALL:
            dispatch = min(proc.dispatch_time_s for proc in device.processors)
        else:
            dispatch = device.default_processor.dispatch_time_s
        models.append(
            ExecutorModel(
                ident=device.name,
                rates=rates,
                comm_bytes_s=comm,
                fixed_s=fixed,
                dispatch_s=dispatch,
            )
        )
    return models


class Strategy(abc.ABC):
    """Distributed-inference planning strategy."""

    #: Human-readable identifier used in reports and plots.
    name: str = "base"

    #: Planning overhead charged on the leader CPU before execution.
    dse_overhead_s: float = 0.0

    def __init__(self) -> None:
        self._cache = Memo(self.PLAN_CACHE_MAX)

    #: Strategies that consult cluster load when planning override
    #: this; load-unaware baselines (MoDNN's static proportional rule)
    #: leave it False and ignore the snapshot.
    load_aware: bool = False

    @abc.abstractmethod
    def _plan(
        self,
        graph: DNNGraph,
        cluster: Cluster,
        load: Optional[Mapping[str, float]] = None,
        leader: Optional[str] = None,
    ) -> ExecutionPlan:
        """Compute a fresh plan (no caching).

        ``leader`` is the resolved physical leader device name (never
        None when called through :meth:`plan`).
        """

    def resolve_leader(self, cluster: Cluster, leader: Optional[str]) -> str:
        """The physical leader a planning call uses (default: the
        cluster's ``devices[0]``)."""
        return leader if leader is not None else cluster.leader.name

    def effective_load(
        self, load: Optional[Mapping[str, float]]
    ) -> Optional[Mapping[str, float]]:
        """The load snapshot this strategy actually consults (None if
        load-unaware)."""
        return load if (load is not None and self.load_aware) else None

    def load_bucket(self, backlog_s: float) -> int:
        """Quantise a backlog into its load bucket (floor semantics).

        Floor bucketing keeps bucket edges monotonic: a growing backlog
        can only move to a higher bucket, never oscillate the way
        ``round()``'s banker's rounding does at ``.5`` edges.
        """
        return math.floor(backlog_s / self.LOAD_BUCKET_S)

    def load_key(self, load: Optional[Mapping[str, float]]) -> Tuple:
        """Quantised identity of a load snapshot.

        Shared by the plan-cache key and the serving scheduler's drift
        detection, so "this plan's bucket" always means the same thing
        in both places.  ``load`` must already be the effective
        (strategy-filtered) load.
        """
        if load is None:
            return ()
        return tuple(
            (name, self.load_bucket(backlog)) for name, backlog in sorted(load.items())
        )

    def cache_key(
        self,
        graph: DNNGraph,
        cluster: Cluster,
        load: Optional[Mapping[str, float]] = None,
        leader: Optional[str] = None,
        partition: Optional[object] = None,
    ) -> Tuple:
        """Plan-cache key: (model, cluster, availability, leader, load
        buckets), optionally namespaced by a cache ``partition``.

        ``load`` must already be the effective (strategy-filtered)
        load; ``leader`` is resolved so ``None`` and the default
        leader's name key identically.  ``partition`` isolates a
        caller's working set from every other partition's (the sharded
        scheduler's workload-clustered mode keys each shard's plans by
        its shard index, so one shard's churn never evicts another
        specialist's hot cluster); ``None`` keeps the historical
        unpartitioned key byte-for-byte.
        """
        key = (
            graph.name,
            cluster.name,
            cluster.availability_signature(),
            self.resolve_leader(cluster, leader),
            self.load_key(load),
        )
        if partition is None:
            return key
        return (partition,) + key

    def plan(
        self,
        graph: DNNGraph,
        cluster: Cluster,
        load: Optional[Mapping[str, float]] = None,
        leader: Optional[str] = None,
        partition: Optional[object] = None,
    ) -> ExecutionPlan:
        """Plan with memoisation on (model, availability, leader, load
        bucket), optionally inside a cache ``partition``.

        A fresh plan is computed by :meth:`_plan` from the *raw*
        effective load snapshot, but cached under its quantised bucket
        (:meth:`load_key`).  So a bucket keeps the plan computed for the
        first raw load that reached it, and a later snapshot in the same
        bucket reuses that plan even where its own raw load would have
        planned differently.  Repeated requests for the same model under
        similar conditions thus reuse the decision -- mirroring how the
        paper's middleware caches DSE results for known workloads.  The
        result depends on the order in which loads reach a bucket, and
        is deterministic given that order.  The cache is LRU-bounded: a
        long open-loop request stream visits unboundedly many load
        buckets, and an unbounded dict would leak plans for buckets
        never seen again.
        """
        effective = self.effective_load(load)
        resolved = self.resolve_leader(cluster, leader)
        key = self.cache_key(
            graph, cluster, effective, leader=resolved, partition=partition
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        plan = self._plan(graph, cluster, load=effective, leader=resolved)
        self._cache_put(key, plan)
        return plan

    def plan_batch(
        self,
        graphs: Sequence[DNNGraph],
        cluster: Cluster,
        load: Optional[Mapping[str, float]] = None,
        leader: Optional[str] = None,
        partition: Optional[object] = None,
    ) -> List[ExecutionPlan]:
        """Co-plan a backlog of requests under one load snapshot.

        Caching follows :meth:`plan`: a plan is computed from the raw
        snapshot and cached under its quantised bucket, so a bucket's
        first raw load decides its plan.
        The base implementation plans sequentially (sharing the plan
        cache, so duplicate models in the backlog are planned once);
        strategies with batched DSE kernels override this to price the
        whole backlog in shared array sweeps.  ``leader`` applies to
        the whole batch (one dispatcher plans from one leader), as does
        the cache ``partition``.
        """
        return [
            self.plan(graph, cluster, load=load, leader=leader, partition=partition)
            for graph in graphs
        ]

    def uncached_plans(
        self,
        graphs: Sequence[DNNGraph],
        cluster: Cluster,
        load: Optional[Mapping[str, float]] = None,
        leader: Optional[str] = None,
        partition: Optional[object] = None,
    ) -> int:
        """Distinct plans a pass over ``graphs`` would compute fresh.

        Counts the distinct plan-cache keys (model x availability x
        leader x load bucket, within ``partition``) not currently
        cached.  Serving schedulers use this to charge
        *measured-bucket* planning overhead: a fresh (model, bucket)
        combination pays the DSE cost on the scheduler CPU, while a
        decision the middleware already cached is free -- mirroring how
        the paper's run-time scheduler reuses DSE results for known
        workloads.
        """
        effective = self.effective_load(load)
        keys = {
            self.cache_key(graph, cluster, effective, leader=leader, partition=partition)
            for graph in graphs
        }
        return sum(1 for key in keys if key not in self._cache)

    def _cache_put(self, key: Tuple, plan: ExecutionPlan) -> None:
        # PLAN_CACHE_MAX may be lowered on an instance after construction.
        self._cache.max_entries = self.PLAN_CACHE_MAX
        self._cache.put(key, plan)

    #: Load quantisation bucket for plan caching.
    LOAD_BUCKET_S = 0.05

    #: Plan-cache LRU bound (like the DNNGraph memos, the cache must not
    #: grow without bound under a sustained request stream).
    PLAN_CACHE_MAX = 512

    def clear_cache(self) -> None:
        self._cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
