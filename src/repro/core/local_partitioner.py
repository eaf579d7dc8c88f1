"""Local DNN partitioner: HiDP's second tier.

Given the piece of the DNN a node received from the global tier (a
model block or a data tile band), the local partitioner consults the
local DSE to pick the partitioning mode across the node's processors
(paper Algorithm 1 lines 8-10):

- ``single``  -- whole piece on the best single processor,
- ``data``    -- spatial sub-bands across processors (Eq. 6 with psi),
- ``pipeline``-- block pipeline across processors (Eq. 5 with psi).

The decision minimises predicted completion time ``theta`` using the
same DP as the global tier, fed with the local computation-to-
communication vector ``psi{lambda, mu}`` instead of ``Psi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.dp import ExecutorModel, data_shares_dp, pipeline_cuts_dp, scale_flops
from repro.core.dse import StagedExchangeSearch
from repro.core.memo import Memo
from repro.core.plans import (
    LOCAL_DATA,
    LOCAL_PIPELINE,
    LOCAL_SINGLE,
    LOCAL_STAGED,
    LocalExec,
    UnitTask,
)
from repro.dnn.graph import DNNGraph, Segment
from repro.dnn.layers import LAYER_CLASSES
from repro.dnn.partition import (
    PartitionError,
    make_data_partition_from_shares,
    spatial_prefix,
)
from repro.dnn.segment_table import SegmentTable
from repro.fastpath import fastpath_enabled
from repro.platform.device import Device
from repro.platform.processor import Processor


@dataclass(frozen=True)
class LocalDecision:
    """The chosen local execution plus its predicted completion time."""

    execution: LocalExec
    predicted_s: float

    @property
    def mode(self) -> str:
        return self.execution.mode


def processor_executor_models(
    device: Device, processors: Optional[Sequence[Processor]] = None
) -> List[ExecutorModel]:
    """Local-tier executor models: one per processor, ``mu`` = memory fabric."""
    procs = list(processors) if processors is not None else list(device.processors)
    models = []
    for proc in procs:
        rates = {cls: proc.rate(cls) for cls in LAYER_CLASSES}
        models.append(
            ExecutorModel(
                ident=proc.name,
                rates=rates,
                comm_bytes_s=device.intra_bw_bytes_s,
                fixed_s=proc.setup_time_s + device.intra_latency_s,
                dispatch_s=proc.dispatch_time_s,
            )
        )
    return models


class LocalPartitioner:
    """Plans the execution of one workload piece on one device."""

    def __init__(
        self,
        device: Device,
        quanta: int = 10,
        enable_data: bool = True,
        enable_pipeline: bool = True,
        max_stages: int = 8,
        processors: Optional[Sequence[str]] = None,
    ):
        if quanta < 1:
            raise ValueError(f"quanta must be >= 1, got {quanta}")
        self.device = device
        self.quanta = quanta
        self.enable_data = enable_data
        self.enable_pipeline = enable_pipeline
        self.max_stages = max_stages
        if processors is None:
            self._procs: Tuple[Processor, ...] = device.processors
        else:
            self._procs = tuple(device.processor(name) for name in processors)
        self._models = processor_executor_models(device, self._procs)
        # Hoisted aggregates for the (hot) staged-search tail estimate.
        self._aggregate_rates = {
            cls: sum(proc.rate(cls) for proc in self._procs) for cls in LAYER_CLASSES
        }
        self._min_dispatch_s = min(proc.dispatch_time_s for proc in self._procs)
        # Staged searches shared across pieces, keyed (graph, hi): a
        # graph compares by identity.
        self._searches = Memo(self.SEARCHES_MAX)

    #: Bound on the shared staged searches (one per graph and range end).
    SEARCHES_MAX = 4096

    # Candidate generators -------------------------------------------------

    def _single(
        self,
        flops_by_class: Mapping[str, int],
        num_ops: int,
        in_bytes: int,
        out_bytes: int,
        label: str,
    ) -> LocalDecision:
        best_proc, best_time = None, float("inf")
        for proc in self._procs:
            time = proc.task_seconds(flops_by_class, num_ops=num_ops)
            time += self.device.transfer_seconds(in_bytes)
            if time < best_time:
                best_time, best_proc = time, proc
        task = UnitTask(
            processor=best_proc.name,
            flops_by_class=dict(flops_by_class),
            input_bytes=in_bytes,
            output_bytes=out_bytes,
            label=label,
            num_ops=num_ops,
        )
        return LocalDecision(LocalExec(mode=LOCAL_SINGLE, tasks=(task,)), best_time)

    def _data(
        self,
        graph: DNNGraph,
        segments: Sequence[Segment],
        seg_range: Tuple[int, int],
        band: Optional[Tuple[int, int]],
        label: str,
        table: SegmentTable,
    ) -> Optional[LocalDecision]:
        if len(self._procs) < 2:
            return None
        if band is not None:
            return self._data_banded(graph, segments, seg_range, band, label, table)
        return self._staged(graph, segments, seg_range, label, table)

    def _staged(
        self,
        graph: DNNGraph,
        segments: Sequence[Segment],
        seg_range: Tuple[int, int],
        label: str,
        table: SegmentTable,
    ) -> Optional[LocalDecision]:
        """Chunk-wise data partitioning (the paper's Fig. 3 local split).

        The range is consumed front-to-back: each iteration searches a
        depth cut and share split for the remaining spatial prefix,
        emits one barrier stage of parallel tiles, and recurses on the
        remainder.  Tiles re-merge over shared memory at every stage
        boundary, so halo growth resets; the non-spatial tail becomes a
        final single-task stage on the best processor.

        A stage's decision depends only on its start and the range end
        ``hi``, not on where the piece began.  On the DSE fast path the
        decisions come from one :class:`~repro.core.dse.
        StagedExchangeSearch` per (graph, ``hi``), kept on this
        partitioner and shared by every piece that ends at ``hi``
        (model blocks, data tails, whole-model pieces); each decision
        is computed the first time a stage reads it.  The reference arm
        (``REPRO_DSE_FASTPATH=0``, the seed behaviour kept as the
        executable spec) builds one unshared search per piece;
        ``tests/core/test_staged_fastpath.py`` pins the two arms to
        byte-identical decisions.
        """
        if fastpath_enabled():
            search = self._shared_search(graph, segments, seg_range[1], table)
        else:
            search = self._staged_search(graph, segments, seg_range[1], table)
        return self._staged_core(graph, segments, seg_range, label, table, search.decide)

    def _staged_search(
        self, graph: DNNGraph, segments: Sequence[Segment], hi: int, table: SegmentTable
    ) -> StagedExchangeSearch:
        return StagedExchangeSearch(
            graph,
            segments,
            hi,
            self._models,
            intra_latency_s=self.device.intra_latency_s,
            intra_bw_bytes_s=self.device.intra_bw_bytes_s,
            quanta=self.quanta,
            tail_seconds=lambda tail_range: self._parallel_tail_estimate(table, tail_range),
            min_sigma=2,
            table=table,
        )

    def _shared_search(
        self, graph: DNNGraph, segments: Sequence[Segment], hi: int, table: SegmentTable
    ) -> StagedExchangeSearch:
        """The search shared by every piece of ``graph`` ending at ``hi``.

        Only the graph's own memoised chain and table are shared: for
        any other chain the range indices alone are ambiguous, so it
        gets a fresh search.
        """
        if segments is not graph.segments() or table is not graph.segment_table():
            return self._staged_search(graph, segments, hi, table)
        key = (graph, hi)
        search = self._searches.get(key)
        if search is None:
            search = self._staged_search(graph, segments, hi, table)
            self._searches.put(key, search)
        return search

    def _staged_core(
        self,
        graph: DNNGraph,
        segments: Sequence[Segment],
        seg_range: Tuple[int, int],
        label: str,
        table: SegmentTable,
        decide,
    ) -> Optional[LocalDecision]:
        """The staged consumption loop, parameterised by the per-stage
        decision source (a shared or a per-piece search)."""
        lo, hi = seg_range
        stages: List[Tuple[UnitTask, ...]] = []
        predicted = 0.0
        current = lo
        while current <= hi and len(stages) < self.max_stages:
            decision = decide(current)
            if decision is None:
                break
            cut = decision.cut_segment
            chunk_ops = table.range_ops(current, cut)
            chunk_flops = table.range_flops(current, cut)
            chunk_in = segments[current].in_spec.size_bytes
            chunk_out = segments[cut].out_spec.size_bytes
            stage_tasks = []
            stage_makespan = 0.0
            for slot, ((proc_idx, share), tile_flops) in enumerate(
                zip(decision.active, decision.per_tile_flops)
            ):
                proc = self._procs[proc_idx]
                boundaries = (1 if slot > 0 else 0) + (
                    1 if slot < len(decision.active) - 1 else 0
                )
                in_bytes = int(share * chunk_in) + boundaries * decision.exchange_equiv_bytes
                out_bytes = int(share * chunk_out)
                stage_tasks.append(
                    UnitTask(
                        processor=proc.name,
                        flops_by_class=tile_flops,
                        input_bytes=in_bytes,
                        output_bytes=out_bytes,
                        label=f"{label}/s{len(stages)}t{slot}",
                        num_ops=chunk_ops,
                    )
                )
                finish = (
                    self.device.transfer_seconds(in_bytes)
                    + proc.task_seconds(tile_flops, num_ops=chunk_ops)
                    + self.device.transfer_seconds(out_bytes)
                )
                stage_makespan = max(stage_makespan, finish)
            single_chunk = self._fastest(chunk_flops, chunk_ops).task_seconds(
                chunk_flops, num_ops=chunk_ops
            )
            if stage_makespan >= 0.97 * single_chunk:
                # Parallelising this chunk pays too little to justify
                # the barrier and per-stage setup; stop splitting.
                break
            stages.append(tuple(stage_tasks))
            predicted += stage_makespan
            if decision.tail_range is None:
                current = hi + 1
            else:
                current = decision.tail_range[0]
        if not stages:
            return None
        if current <= hi:
            rem_flops = table.range_flops(current, hi)
            rem_ops = table.range_ops(current, hi)
            proc = self._fastest(rem_flops, rem_ops)
            task = UnitTask(
                processor=proc.name,
                flops_by_class=rem_flops,
                input_bytes=segments[current].in_spec.size_bytes,
                output_bytes=segments[hi].out_spec.size_bytes,
                label=f"{label}/rest",
                num_ops=rem_ops,
            )
            stages.append((task,))
            predicted += proc.task_seconds(rem_flops, num_ops=rem_ops)
        flattened = tuple(task for stage in stages for task in stage)
        return LocalDecision(
            LocalExec(mode=LOCAL_STAGED, tasks=flattened, stages=tuple(stages)),
            predicted,
        )

    def _parallel_tail_estimate(
        self, table: SegmentTable, tail_range: Tuple[int, int]
    ) -> float:
        """Optimistic tail price for the staged search: the remainder
        will itself be parallelised, so charge the aggregate rate."""
        tail_flops = table.range_flops(tail_range[0], tail_range[1])
        tail_ops = table.range_ops(tail_range[0], tail_range[1])
        aggregate = 0.0
        for cls, flops in tail_flops.items():
            if flops:
                aggregate += flops / self._aggregate_rates[cls]
        dispatch = tail_ops * self._min_dispatch_s
        return aggregate + dispatch

    def _data_banded(
        self,
        graph: DNNGraph,
        segments: Sequence[Segment],
        seg_range: Tuple[int, int],
        band: Tuple[int, int],
        label: str,
        table: SegmentTable,
    ) -> Optional[LocalDecision]:
        """Sub-split a received tile band across local processors.

        The depth cut is fixed by the global tier (the band refers to
        rows of the range's spatial-prefix output), so only the share
        split is searched here.
        """
        prefix_lo, prefix_hi = spatial_prefix(graph, segments, seg_range)
        if prefix_hi < prefix_lo:
            return None
        prefix_flops = table.range_flops(prefix_lo, prefix_hi)
        height = graph.spec(segments[prefix_hi].layer_names[-1]).height
        fraction = (band[1] - band[0]) / height
        band_flops = scale_flops(prefix_flops, fraction)
        prefix_ops = table.range_ops(prefix_lo, prefix_hi)
        entry_bytes = int(segments[prefix_lo].in_spec.size_bytes * fraction)
        plan = data_shares_dp(
            band_flops,
            entry_bytes,
            self._models,
            quanta=self.quanta,
            num_ops=prefix_ops,
        )
        active = [(idx, share) for idx, share in enumerate(plan.shares) if share > 0]
        if len(active) < 2:
            return None
        try:
            partition = make_data_partition_from_shares(
                graph,
                [share for _, share in active],
                segments=segments,
                seg_range=seg_range,
                band=band,
            )
        except PartitionError:
            return None
        if partition.num_tiles != len(active):
            return None
        tasks = []
        worst = 0.0
        for (proc_idx, _), tile in zip(active, partition.tiles):
            proc = self._procs[proc_idx]
            tasks.append(
                UnitTask(
                    processor=proc.name,
                    flops_by_class=dict(tile.flops_by_class),
                    input_bytes=tile.input_bytes,
                    output_bytes=tile.output_bytes,
                    label=f"{label}/tile{tile.index}",
                    num_ops=prefix_ops,
                )
            )
            finish = (
                self.device.transfer_seconds(tile.input_bytes)
                + proc.task_seconds(tile.flops_by_class, num_ops=prefix_ops)
                + self.device.transfer_seconds(tile.output_bytes)
            )
            worst = max(worst, finish)
        return LocalDecision(LocalExec(mode=LOCAL_DATA, tasks=tuple(tasks)), worst)

    def _pipeline(
        self,
        segments: Sequence[Segment],
        seg_range: Tuple[int, int],
        label: str,
        table: SegmentTable,
    ) -> Optional[LocalDecision]:
        lo, hi = seg_range
        if len(self._procs) < 2 or hi - lo < 1:
            return None
        # Memoised slice: a stable tuple identity lets the coarsening
        # memo in pipeline_cuts_dp hit across repeated plans.
        segs = table.chain_slice(lo, hi)
        plan = pipeline_cuts_dp(segs, self._models, source_executor=0)
        if plan.num_blocks < 2:
            return None
        tasks = []
        for seg_lo, seg_hi, executor_idx in plan.blocks:
            tasks.append(
                UnitTask(
                    processor=self._procs[executor_idx].name,
                    flops_by_class=table.range_flops(seg_lo, seg_hi),
                    input_bytes=segments[seg_lo].in_spec.size_bytes,
                    output_bytes=segments[seg_hi].out_spec.size_bytes,
                    label=f"{label}/stage{len(tasks)}",
                    num_ops=table.range_ops(seg_lo, seg_hi),
                )
            )
        return LocalDecision(
            LocalExec(mode=LOCAL_PIPELINE, tasks=tuple(tasks)), plan.latency_s
        )

    def _fastest(self, flops_by_class: Mapping[str, int], num_ops: int = 0) -> Processor:
        return min(
            self._procs, key=lambda proc: proc.task_seconds(flops_by_class, num_ops=num_ops)
        )

    # Public API ------------------------------------------------------------

    def plan_piece(
        self,
        graph: DNNGraph,
        seg_range: Tuple[int, int],
        band: Optional[Tuple[int, int]] = None,
        segments: Optional[Sequence[Segment]] = None,
        label: str = "",
        table: Optional[SegmentTable] = None,
    ) -> LocalDecision:
        """Pick the best local mode for a segment range (optionally a band).

        ``theta = min(theta_omega, theta_sigma)`` -- Algorithm 1 line 10.

        ``table`` supplies O(1) range costs over the segment chain;
        when omitted it is taken from the graph (full chain) or built
        from ``segments``.
        """
        if table is not None:
            segs = table.segments
        elif segments is not None:
            segs = segments
            table = SegmentTable(segs)
        else:
            table = graph.segment_table()
            segs = table.segments
        lo, hi = seg_range
        flops = table.range_flops(lo, hi)
        num_ops = table.range_ops(lo, hi)
        in_bytes = segs[lo].in_spec.size_bytes
        out_bytes = segs[hi].out_spec.size_bytes
        if band is not None:
            prefix_lo, prefix_hi = spatial_prefix(graph, segs, seg_range)
            height = graph.spec(segs[prefix_hi].layer_names[-1]).height
            fraction = (band[1] - band[0]) / height
            flops = scale_flops(flops, fraction)
            in_bytes = int(in_bytes * fraction)
            out_bytes = int(out_bytes * fraction)
        candidates = [self._single(flops, num_ops, in_bytes, out_bytes, label)]
        if self.enable_data:
            data_candidate = self._data(graph, segs, seg_range, band, label, table)
            if data_candidate is not None:
                candidates.append(data_candidate)
        if self.enable_pipeline and band is None:
            pipe_candidate = self._pipeline(segs, seg_range, label, table)
            if pipe_candidate is not None:
                candidates.append(pipe_candidate)
        return min(candidates, key=lambda decision: decision.predicted_s)
