"""HiDP: the hierarchical partitioning strategy (the paper's contribution).

Global tier (Algorithm 1, lines 3-7): the leader gathers the
availability vector, builds the global resource vector ``Psi`` from
*full-node* rates (every core counted -- the heterogeneity-aware view),
and runs the DP twice: once for model partitioning (``Theta_omega``,
Eq. 5) and once for data partitioning (``Theta_sigma``, Eq. 6), keeping
the faster mode.

Local tier (lines 8-10): every node that received a piece re-runs the
same DP over its own processors (``psi`` instead of ``Psi``) through
:class:`~repro.core.local_partitioner.LocalPartitioner`.

The ablation switches (``aggregation``, ``local_modes``,
``allowed_modes``) let the experiment harness degrade HiDP into its
global-only / single-mode variants, and are exactly how the DisNet
baseline is derived (the paper implemented DisNet from HiDP's own
partitioning modules).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.dp import ExecutorModel, pipeline_cuts_dp, scale_flops
from repro.core.dse import DataModeDecision, DataSearchSpec, explore_data_batch
from repro.core.local_partitioner import LocalDecision, LocalPartitioner
from repro.core.memo import Memo, Ref
from repro.core.plans import (
    ExecutionPlan,
    LOCAL_SINGLE,
    LocalExec,
    MODE_DATA,
    MODE_LOCAL,
    MODE_MODEL,
    NodeAssignment,
    UnitTask,
)
from repro.core.strategy import (
    AGGREGATE_ALL,
    AGGREGATE_DEFAULT,
    Strategy,
    device_executor_models,
)
from repro.dnn.graph import DNNGraph, Segment
from repro.dnn.partition import (
    PartitionError,
    make_data_partition_from_shares,
    spatial_prefix,
)
from repro.dnn.segment_table import SegmentTable
from repro.platform.cluster import Cluster
from repro.platform.device import Device


@dataclass(frozen=True)
class ModeCandidate:
    """One explored partitioning mode with its predicted latency."""

    mode: str
    predicted_s: float
    assignments: Tuple[NodeAssignment, ...]
    merge_exec: Optional[LocalExec]
    notes: Dict


#: Selection objectives for the DSE (the paper's future work -- "We
#: consider energy-efficient distributed inference for future work" --
#: implemented here as alternative candidate-selection criteria).
OBJECTIVE_LATENCY = "latency"
OBJECTIVE_ENERGY = "energy"
OBJECTIVE_EDP = "edp"
OBJECTIVES = (OBJECTIVE_LATENCY, OBJECTIVE_ENERGY, OBJECTIVE_EDP)


def estimate_candidate_energy(
    cluster: Cluster, candidate: ModeCandidate, leader: Optional[str] = None
) -> float:
    """Predicted energy [J] of executing a candidate plan.

    Marginal (busy - idle) energy of every task on its processor, plus
    the cluster-wide idle floor over the predicted makespan -- the same
    decomposition the measured Fig. 5b energy uses.  ``leader`` is the
    device hosting the merge (default: the cluster leader).
    """

    def task_energy(device_name: str, tasks) -> float:
        device = cluster.device(device_name)
        joules = 0.0
        for task in tasks:
            proc = device.processor(task.processor)
            busy = proc.task_seconds(
                task.flops_by_class, num_ops=task.num_ops, pinned=task.pinned
            )
            joules += proc.power.active_energy_j(busy)
        return joules

    energy = 0.0
    for assignment in candidate.assignments:
        local = assignment.local
        energy += task_energy(assignment.device, local.tasks)
        if local.tail is not None:
            energy += task_energy(assignment.device, (local.tail,))
    if candidate.merge_exec is not None:
        merge_host = leader if leader is not None else cluster.leader.name
        energy += task_energy(merge_host, candidate.merge_exec.tasks)
    idle_floor_w = sum(device.idle_power_w for device in cluster.devices)
    energy += idle_floor_w * candidate.predicted_s
    return energy


def device_local_signature(device: Device) -> Tuple:
    """Hardware identity of a device's local tier.

    Local-tier decisions depend only on the processor set and the
    memory fabric -- not on the device's *name* -- so two boards of the
    same type (or one board across planning passes) can share one local
    search.  ``Processor`` is a frozen value dataclass, so the tuple is
    hashable and compares by spec.
    """
    return (device.intra_bw_bytes_s, device.intra_latency_s, device.processors)


def _relabel_task(task: UnitTask, old: str, new: str) -> UnitTask:
    if task.label.startswith(old):
        return replace(task, label=new + task.label[len(old):])
    return replace(task, label=new)


def relabel_decision(decision: LocalDecision, old: str, new: str) -> LocalDecision:
    """A shared local decision re-labelled for a new piece.

    Task labels embed the piece label as a prefix (``tile3``,
    ``blk1/s0t2``, ...); everything else about the decision -- the
    mode, the processors, the predicted time -- is label-independent.
    """
    if old == new:
        return decision
    execution = decision.execution
    if execution.stages is not None:
        stages = tuple(
            tuple(_relabel_task(task, old, new) for task in stage)
            for stage in execution.stages
        )
        tasks = tuple(task for stage in stages for task in stage)
    else:
        stages = None
        tasks = tuple(_relabel_task(task, old, new) for task in execution.tasks)
    tail = _relabel_task(execution.tail, old, new) if execution.tail is not None else None
    return LocalDecision(
        LocalExec(mode=execution.mode, tasks=tasks, tail=tail, stages=stages),
        decision.predicted_s,
    )


def candidate_score(
    cluster: Cluster, candidate: ModeCandidate, objective: str, leader: Optional[str] = None
) -> float:
    """Objective value of a candidate (lower is better)."""
    if objective == OBJECTIVE_LATENCY:
        return candidate.predicted_s
    energy = estimate_candidate_energy(cluster, candidate, leader=leader)
    if objective == OBJECTIVE_ENERGY:
        return energy
    if objective == OBJECTIVE_EDP:
        return energy * candidate.predicted_s
    raise ValueError(f"unknown objective {objective!r}; known: {OBJECTIVES}")


class HiDPStrategy(Strategy):
    """Hierarchical DNN partitioning (HiDP, DATE 2025)."""

    name = "hidp"
    #: "The overhead of using DP algorithm-based exploration including
    #: both global and local partitioning is 15 ms on average."
    dse_overhead_s = 0.015
    #: HiDP binds workloads to cores via CGroups; derived strategies
    #: that rely on the default framework run-time set this False.
    pinned = True
    #: The run-time scheduler monitors cluster-wide status before every
    #: exploration (Algorithm 1 line 3).
    load_aware = True

    def __init__(
        self,
        quanta: int = 20,
        local_quanta: int = 10,
        aggregation: str = AGGREGATE_ALL,
        local_data: bool = True,
        local_pipeline: bool = True,
        allowed_modes: Tuple[str, ...] = (MODE_DATA, MODE_MODEL),
        max_pipeline_segments: int = 48,
        max_cuts: int = 10,
        objective: str = OBJECTIVE_LATENCY,
    ):
        super().__init__()
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}; known: {OBJECTIVES}")
        for field, value in (
            ("quanta", quanta),
            ("local_quanta", local_quanta),
            ("max_cuts", max_cuts),
            ("max_pipeline_segments", max_pipeline_segments),
        ):
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        self.quanta = quanta
        self.local_quanta = local_quanta
        self.aggregation = aggregation
        self.local_data = local_data
        self.local_pipeline = local_pipeline
        self.allowed_modes = allowed_modes
        self.max_pipeline_segments = max_pipeline_segments
        self.max_cuts = max_cuts
        self.objective = objective
        # Local-tier decision memo, shared across identical processors
        # (and across planning passes: the local tier never sees the
        # load vector, so a replan under a drifted load bucket reuses
        # every local search verbatim).  Values are (label, decision).
        self._local_memo = Memo(self.LOCAL_MEMO_MAX)
        self._local_partitioners: Dict[Tuple, LocalPartitioner] = {}

    #: Bound on the shared local-decision memo.
    LOCAL_MEMO_MAX = 4096

    @property
    def local_searches(self) -> int:
        """Local-tier searches run (local memo misses)."""
        return self._local_memo.misses

    @property
    def local_shared(self) -> int:
        """Local-tier decisions reused from the memo (its hits)."""
        return self._local_memo.hits

    # Local tier -----------------------------------------------------------

    def _local_partitioner(self, device: Device) -> LocalPartitioner:
        """The one local partitioner of a device's hardware.

        A partitioner reads only its device's processors and memory
        fabric, which the signature holds, so twin boards share one
        (and its staged searches)."""
        signature = device_local_signature(device)
        partitioner = self._local_partitioners.get(signature)
        if partitioner is None:
            partitioner = LocalPartitioner(
                device,
                quanta=self.local_quanta,
                enable_data=self.local_data,
                enable_pipeline=self.local_pipeline,
            )
            self._local_partitioners[signature] = partitioner
        return partitioner

    def _local_single_default(
        self,
        device: Device,
        flops_by_class: Dict[str, int],
        num_ops: int,
        in_bytes: int,
        out_bytes: int,
        label: str,
    ) -> LocalDecision:
        """Default-runtime execution: everything on the default processor."""
        proc = device.default_processor
        task = UnitTask(
            processor=proc.name,
            flops_by_class=flops_by_class,
            input_bytes=in_bytes,
            output_bytes=out_bytes,
            label=label,
            pinned=self.pinned,
            num_ops=num_ops,
        )
        predicted = proc.task_seconds(flops_by_class, num_ops=num_ops, pinned=self.pinned)
        predicted += device.transfer_seconds(in_bytes)
        return LocalDecision(LocalExec(mode=LOCAL_SINGLE, tasks=(task,)), predicted)

    def _plan_piece(
        self,
        device: Device,
        graph: DNNGraph,
        segments: Sequence[Segment],
        seg_range: Tuple[int, int],
        band: Optional[Tuple[int, int]],
        label: str,
        table: Optional[SegmentTable] = None,
    ) -> LocalDecision:
        """Local-tier decision for one piece, shared across identical
        processors.

        The decision depends on the device *hardware* (processor set +
        memory fabric), the graph and the piece -- not on the device
        name, the cluster load or the planning pass -- so it is memoised
        on that signature.  Twin boards share one search, and replans
        triggered by load-bucket drift reuse every local decision from
        the previous pass (only labels are rewritten).
        """
        memo_key = (
            device_local_signature(device),
            Ref(graph),
            seg_range,
            band,
            segments is graph.segments(),
        )
        entry = self._local_memo.get(memo_key)
        if entry is not None:
            return relabel_decision(entry[1], entry[0], label)
        decision = self._plan_piece_uncached(device, graph, segments, seg_range, band, label, table)
        # Memoise only pieces of the graph's own memoised chain: for ad
        # hoc segment lists the range indices alone are ambiguous.
        if memo_key[-1]:
            self._local_memo.put(memo_key, (label, decision))
        return decision

    def _plan_piece_uncached(
        self,
        device: Device,
        graph: DNNGraph,
        segments: Sequence[Segment],
        seg_range: Tuple[int, int],
        band: Optional[Tuple[int, int]],
        label: str,
        table: Optional[SegmentTable] = None,
    ) -> LocalDecision:
        """Local-tier decision for one piece (ablation-aware)."""
        if table is None:
            table = SegmentTable(segments)
        if self.local_data or self.local_pipeline:
            return self._local_partitioner(device).plan_piece(
                graph, seg_range, band=band, segments=segments, label=label, table=table
            )
        lo, hi = seg_range
        flops = table.range_flops(lo, hi)
        num_ops = table.range_ops(lo, hi)
        in_bytes = segments[lo].in_spec.size_bytes
        out_bytes = segments[hi].out_spec.size_bytes
        if band is not None:
            prefix_lo, prefix_hi = spatial_prefix(graph, segments, seg_range)
            height = graph.spec(segments[prefix_hi].layer_names[-1]).height
            fraction = (band[1] - band[0]) / height
            flops = scale_flops(flops, fraction)
            in_bytes = int(in_bytes * fraction)
            out_bytes = int(out_bytes * fraction)
        return self._local_single_default(device, flops, num_ops, in_bytes, out_bytes, label)

    # Global tier: data mode -------------------------------------------------

    @staticmethod
    def _data_tail_seconds(models: Sequence[ExecutorModel], table: SegmentTable):
        """Search-time tail estimate: leader at full-node rate; the
        chosen tail is re-planned exactly by the local tier."""

        def tail_seconds(tail_range: Tuple[int, int]) -> float:
            return models[0].compute_seconds(
                table.range_flops(tail_range[0], tail_range[1]),
                table.range_ops(tail_range[0], tail_range[1]),
            )

        return tail_seconds

    def _data_search_spec(
        self, graph: DNNGraph, models: Sequence[ExecutorModel]
    ) -> DataSearchSpec:
        """The global-tier data search of one graph, batchable across a
        backlog via :func:`explore_data_batch`."""
        segments = graph.segments()
        table = graph.segment_table()
        return DataSearchSpec(
            graph=graph,
            segments=segments,
            seg_range=(0, len(segments) - 1),
            table=table,
            tail_seconds=self._data_tail_seconds(models, table),
            min_sigma=2,
            max_cuts=self.max_cuts,
        )

    def _candidate_data_from_decision(
        self,
        graph: DNNGraph,
        segments: Sequence[Segment],
        devices: Sequence[Device],
        cluster: Cluster,
        decision: Optional[DataModeDecision],
        table: SegmentTable,
    ) -> Optional[ModeCandidate]:
        """Assemble the data-mode candidate from a DSE decision (the
        local tier plans every tile; shared across identical boards)."""
        if decision is None:
            return None
        cut = decision.cut_segment
        assignments: List[NodeAssignment] = []
        worst = 0.0
        leader_name = devices[0].name
        for (device_idx, _), tile in zip(decision.active, decision.partition.tiles):
            device = devices[device_idx]
            local = self._plan_piece(
                device,
                graph,
                segments,
                (0, cut),
                (tile.out_lo, tile.out_hi),
                f"{graph.name}/tile{tile.index}",
                table=table,
            )
            is_leader = device.name == leader_name
            send = 0 if is_leader else tile.input_bytes
            ret = 0 if is_leader else tile.output_bytes
            assignments.append(
                NodeAssignment(
                    device=device.name,
                    local=local.execution,
                    send_bytes=send,
                    return_bytes=ret,
                    label=f"tile{tile.index}",
                )
            )
            finish = local.predicted_s
            if not is_leader:
                finish += cluster.network.transfer_seconds(send)
                finish += cluster.network.transfer_seconds(ret)
            worst = max(worst, finish)
        merge_exec = None
        predicted = worst
        if decision.tail_range is not None:
            tail_decision = self._plan_piece(
                devices[0],
                graph,
                segments,
                decision.tail_range,
                None,
                f"{graph.name}/tail",
                table=table,
            )
            merge_exec = tail_decision.execution
            predicted += tail_decision.predicted_s
        return ModeCandidate(
            mode=MODE_DATA,
            predicted_s=predicted,
            assignments=tuple(assignments),
            merge_exec=merge_exec,
            notes={
                "sigma": decision.sigma,
                "cut_segment": cut,
                "shares": [share for _, share in decision.active],
            },
        )

    # Global tier: model mode --------------------------------------------------

    def _candidate_model(
        self,
        graph: DNNGraph,
        segments: Sequence[Segment],
        devices: Sequence[Device],
        models: Sequence[ExecutorModel],
        cluster: Cluster,
        table: Optional[SegmentTable] = None,
    ) -> Optional[ModeCandidate]:
        if table is None:
            table = SegmentTable(segments)
        pipe = pipeline_cuts_dp(
            segments, models, source_executor=0, max_segments=self.max_pipeline_segments
        )
        leader_name = devices[0].name
        if pipe.num_blocks == 1 and devices[pipe.blocks[0][2]].name == leader_name:
            seg_lo, seg_hi, executor_idx = pipe.blocks[0]
            device = devices[executor_idx]
            decision = self._plan_piece(
                device, graph, segments, (seg_lo, seg_hi), None, f"{graph.name}/local", table=table
            )
            assignment = NodeAssignment(
                device=device.name, local=decision.execution, label="local"
            )
            return ModeCandidate(
                mode=MODE_LOCAL,
                predicted_s=decision.predicted_s,
                assignments=(assignment,),
                merge_exec=None,
                notes={"blocks": 1},
            )
        assignments = []
        predicted = 0.0
        previous = leader_name
        for block_idx, (seg_lo, seg_hi, executor_idx) in enumerate(pipe.blocks):
            device = devices[executor_idx]
            decision = self._plan_piece(
                device,
                graph,
                segments,
                (seg_lo, seg_hi),
                None,
                f"{graph.name}/blk{block_idx}",
                table=table,
            )
            send = segments[seg_lo].in_spec.size_bytes if device.name != previous else 0
            is_last = block_idx == len(pipe.blocks) - 1
            ret = segments[seg_hi].out_spec.size_bytes if (is_last and device.name != leader_name) else 0
            assignments.append(
                NodeAssignment(
                    device=device.name,
                    local=decision.execution,
                    send_bytes=send,
                    return_bytes=ret,
                    label=f"blk{block_idx}",
                )
            )
            if send:
                predicted += cluster.network.transfer_seconds(send)
            predicted += decision.predicted_s
            if ret:
                predicted += cluster.network.transfer_seconds(ret)
            previous = device.name
        return ModeCandidate(
            mode=MODE_MODEL,
            predicted_s=predicted,
            assignments=tuple(assignments),
            merge_exec=None,
            notes={"blocks": pipe.num_blocks, "dp_latency": pipe.latency_s},
        )

    # Entry point -----------------------------------------------------------------

    def _planning_context(
        self, cluster: Cluster, load: Optional[Mapping[str, float]], leader: Optional[str] = None
    ) -> Tuple[List[Device], List[ExecutorModel]]:
        """Available devices (leader first) and their executor models.

        The planning leader heads the device list, so every index-0
        assumption in the DP kernels (free communication, pipeline
        source, tail host) targets the elected physical leader.  With
        the default leader this is the historical device order.
        """
        devices = list(cluster.planning_devices(leader))
        models = device_executor_models(cluster, devices, self.aggregation, load=load)
        return devices, models

    def _plan(
        self,
        graph: DNNGraph,
        cluster: Cluster,
        load: Optional[Mapping[str, float]] = None,
        leader: Optional[str] = None,
    ) -> ExecutionPlan:
        devices, models = self._planning_context(cluster, load, leader=leader)
        data_decision: Optional[DataModeDecision] = None
        if MODE_DATA in self.allowed_modes:
            spec = self._data_search_spec(graph, models)
            data_decision = explore_data_batch([spec], models, quanta=self.quanta)[0]
        return self._assemble_plan(graph, cluster, devices, models, data_decision)

    def plan_batch(
        self,
        graphs: Sequence[DNNGraph],
        cluster: Cluster,
        load: Optional[Mapping[str, float]] = None,
        leader: Optional[str] = None,
        partition: Optional[object] = None,
    ) -> List[ExecutionPlan]:
        """Co-plan a backlog of concurrent requests in one pass.

        Distinct models in the backlog run their global-tier data DSE
        through a single batched share-DP sweep
        (:func:`~repro.core.dse.explore_data_batch`); duplicate models
        and already-cached (model, leader, load bucket) tuples are
        planned once.  Plans are identical to per-request :meth:`plan`
        calls and land in the same cache, so later ``plan()`` calls
        hit.  As in :meth:`plan`, a plan is computed from the raw
        effective load and cached under its quantised bucket: the first
        raw load to reach a bucket decides the plan it keeps.  ``leader`` applies batch-wide (one dispatcher plans from
        one physical leader), as does the cache ``partition``.
        """
        effective = self.effective_load(load)
        leader = self.resolve_leader(cluster, leader)
        # cache_key's layout with the per-batch invariants (availability
        # signature, leader, quantised load) hoisted out of the per-graph
        # loop -- the load quantisation alone is a sort plus a bucket pass
        # per call; keep the tuple shape in sync with Strategy.cache_key.
        signature = cluster.availability_signature()
        load_key = self.load_key(effective)
        if partition is None:
            keys = [
                (graph.name, cluster.name, signature, leader, load_key)
                for graph in graphs
            ]
        else:
            keys = [
                (partition, graph.name, cluster.name, signature, leader, load_key)
                for graph in graphs
            ]
        # Resolve against the cache up front: re-reading after the
        # inserts below could KeyError if this very batch's new plans
        # evicted a pre-existing key from the LRU.
        plans_by_key: Dict[Tuple, ExecutionPlan] = {}
        missing: "OrderedDict[Tuple, DNNGraph]" = OrderedDict()
        for key, graph in zip(keys, graphs):
            if key in plans_by_key or key in missing:
                continue
            cached = self._cache.get(key)
            if cached is not None:
                plans_by_key[key] = cached
            else:
                missing[key] = graph
        if missing:
            devices, models = self._planning_context(cluster, effective, leader=leader)
            decisions: Dict[Tuple, Optional[DataModeDecision]] = {}
            if MODE_DATA in self.allowed_modes:
                specs = [
                    self._data_search_spec(graph, models) for graph in missing.values()
                ]
                batch = explore_data_batch(specs, models, quanta=self.quanta)
                decisions = dict(zip(missing.keys(), batch))
            for key, graph in missing.items():
                plan = self._assemble_plan(
                    graph, cluster, devices, models, decisions.get(key)
                )
                self._cache_put(key, plan)
                plans_by_key[key] = plan
        return [plans_by_key[key] for key in keys]

    def _assemble_plan(
        self,
        graph: DNNGraph,
        cluster: Cluster,
        devices: Sequence[Device],
        models: Sequence[ExecutorModel],
        data_decision: Optional[DataModeDecision],
    ) -> ExecutionPlan:
        """Mode selection + plan assembly from a (possibly batched) DSE
        decision; the local tier runs here."""
        segments = graph.segments()
        table = graph.segment_table()
        candidates: List[ModeCandidate] = []
        if MODE_DATA in self.allowed_modes:
            candidate = self._candidate_data_from_decision(
                graph, segments, devices, cluster, data_decision, table
            )
            if candidate is not None:
                candidates.append(candidate)
        if MODE_MODEL in self.allowed_modes:
            candidate = self._candidate_model(graph, segments, devices, models, cluster, table)
            if candidate is not None:
                candidates.append(candidate)
        if not candidates:
            # Degenerate fall-back: everything on the leader.
            decision = self._plan_piece(
                devices[0], graph, segments, (0, len(segments) - 1), None, graph.name, table=table
            )
            candidates.append(
                ModeCandidate(
                    mode=MODE_LOCAL,
                    predicted_s=decision.predicted_s,
                    assignments=(
                        NodeAssignment(device=devices[0].name, local=decision.execution),
                    ),
                    merge_exec=None,
                    notes={"fallback": True},
                )
            )
        leader_name = devices[0].name
        best = min(
            candidates,
            key=lambda c: candidate_score(cluster, c, self.objective, leader=leader_name),
        )
        notes = dict(best.notes, explored=[c.mode for c in candidates])
        if self.objective != OBJECTIVE_LATENCY:
            notes["objective"] = self.objective
            notes["predicted_energy_j"] = estimate_candidate_energy(
                cluster, best, leader=leader_name
            )
        return ExecutionPlan(
            strategy=self.name,
            model=graph.name,
            mode=best.mode,
            assignments=best.assignments,
            merge_exec=best.merge_exec,
            predicted_latency_s=best.predicted_s,
            dse_overhead_s=self.dse_overhead_s,
            notes=notes,
            leader=leader_name,
        )
