"""Design-space exploration agent: joint (depth, sigma, shares) search
for data partitioning, shared by the global and local tiers.

Splitting a deep CNN data-wise at its *last* spatial layer is useless:
the receptive field of a late row band covers nearly the whole input,
so every tile recomputes the entire network.  Fused-tile partitioning
therefore tiles only a *front range* of the network -- segments
``[lo..p]`` -- and executes the remainder ``[p+1..hi]`` unpartitioned
after the merge.  The depth cut ``p`` trades halo recomputation and
boundary-tensor size against how much work can run in parallel.

:func:`explore_data` sweeps candidate depth cuts, runs the subset-sum
share DP (:func:`repro.core.dp.data_shares_dp`) at each, materialises
the exact halo-inflated tiles, and returns the best found decision.
This is the paper's DSE agent "exploring the number of parallel
submodels sigma" -- identical machinery at the global tier (executors =
devices, comm = beta) and the local tier (executors = processors,
comm = mu).

:func:`explore_data_exchange` runs the same search with per-layer halo
exchange instead of recomputation; it is the local tier's staged split.
:class:`StagedExchangeSearch` keeps those per-stage decisions for one
range end, computes each the first time a stage reads it, and serves
every piece that ends there.

:func:`exchange_costs` prices the alternative MoDNN-style semantics --
full-depth row bands with per-layer halo *exchange* instead of
recomputation -- used by the MoDNN baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.core.dp import ExecutorModel, data_shares_dp_batch
from repro.dnn.graph import DNNGraph, Segment
from repro.dnn.layers import LAYER_CLASSES
from repro.dnn.partition import (
    DataPartition,
    PartitionError,
    make_data_partition_from_shares,
    spatial_prefix,
)
from repro.dnn.segment_table import SegmentTable


@dataclass(frozen=True)
class DataModeDecision:
    """Outcome of the (depth, sigma, shares) search."""

    cut_segment: int  # inclusive end of the tiled range
    active: Tuple[Tuple[int, float], ...]  # (executor index, share)
    partition: DataPartition
    predicted_s: float
    tail_range: Optional[Tuple[int, int]]  # segments after the cut, or None

    @property
    def sigma(self) -> int:
        return len(self.active)


def candidate_cuts(
    graph: DNNGraph,
    segments: Sequence[Segment],
    seg_range: Tuple[int, int],
    max_cuts: int = 10,
    table: Optional[SegmentTable] = None,
) -> List[int]:
    """Candidate depth cuts: spatial-prefix segment ends, thinned to at
    most ``max_cuts`` positions evenly spaced by cumulative FLOPs."""
    lo, hi = seg_range
    prefix_lo, prefix_hi = spatial_prefix(graph, segments, seg_range)
    if prefix_hi < prefix_lo:
        return []
    positions = list(range(prefix_lo, prefix_hi + 1))
    if len(positions) <= max_cuts:
        return positions
    if table is not None:
        total = table.range_flops_total(prefix_lo, prefix_hi)
    else:
        total = sum(segments[idx].flops for idx in positions)
    if total == 0:
        step = max(1, len(positions) // max_cuts)
        return positions[::step][:max_cuts]
    chosen: List[int] = []
    acc = 0
    next_quantile = total / max_cuts
    for idx in positions:
        acc += segments[idx].flops
        if acc >= next_quantile or idx == positions[-1]:
            chosen.append(idx)
            next_quantile += total / max_cuts
    if positions[-1] not in chosen:
        chosen.append(positions[-1])
    return chosen


def _data_share_items(
    graph: DNNGraph,
    segments: Sequence[Segment],
    seg_range: Tuple[int, int],
    max_cuts: int,
    table: SegmentTable,
) -> Tuple[List[int], List[Tuple[Dict[str, int], int, int]]]:
    """The (valid cuts, share-DP workload items) of one data search.

    Separated from :func:`explore_data` so batched callers can gather
    the items of *many* searches and price them in a single
    :func:`data_shares_dp_batch` sweep; :func:`explore_data_exchange`
    prices the same items.
    """
    lo, _ = seg_range
    cuts = candidate_cuts(graph, segments, seg_range, max_cuts, table=table)
    valid_cuts = [cut for cut in cuts if table.range_flops_total(lo, cut) != 0]
    entry_bytes = segments[lo].in_spec.size_bytes if segments else 0
    items = [
        (
            table.range_flops(lo, cut),
            entry_bytes + segments[cut].out_spec.size_bytes,
            table.range_ops(lo, cut),
        )
        for cut in valid_cuts
    ]
    return valid_cuts, items


def _select_data_decision(
    graph: DNNGraph,
    segments: Sequence[Segment],
    seg_range: Tuple[int, int],
    executors: Sequence[ExecutorModel],
    valid_cuts: Sequence[int],
    items: Sequence[Tuple[Dict[str, int], int, int]],
    share_plans: Sequence["SharePlan"],
    tail_seconds: Optional[Callable[[Tuple[int, int]], float]],
    min_sigma: int,
    table: SegmentTable,
) -> Optional[DataModeDecision]:
    """Pick the best decision from priced candidate cuts (exact tiles)."""
    lo, hi = seg_range
    if tail_seconds is None:

        def tail_seconds(tail_range: Tuple[int, int]) -> float:
            return executors[0].compute_seconds(
                table.range_flops(tail_range[0], tail_range[1]),
                table.range_ops(tail_range[0], tail_range[1]),
            )

    best: Optional[DataModeDecision] = None
    for cut, (tile_flops, _, tile_ops), share_plan in zip(valid_cuts, items, share_plans):
        active = [(idx, share) for idx, share in enumerate(share_plan.shares) if share > 0]
        if len(active) < max(min_sigma, 1):
            continue
        if len(active) == 1 and min_sigma <= 1:
            # Degenerate: single executor; tiles are pointless but legal.
            continue
        try:
            partition = make_data_partition_from_shares(
                graph,
                [share for _, share in active],
                segments=segments,
                seg_range=(lo, cut),
            )
        except PartitionError:
            continue
        if partition.num_tiles != len(active):
            continue
        # Exact makespan from materialised (halo-inflated) tiles.
        worst = 0.0
        for (executor_idx, _), tile in zip(active, partition.tiles):
            executor = executors[executor_idx]
            wire = tile.input_bytes + tile.output_bytes
            finish = (
                executor.fixed_s
                + executor.comm_seconds(wire)
                + executor.compute_seconds(tile.flops_by_class, tile_ops)
            )
            worst = max(worst, finish)
        predicted = worst
        tail_range: Optional[Tuple[int, int]] = None
        if cut < hi:
            tail_range = (cut + 1, hi)
            predicted += tail_seconds(tail_range)
        if best is None or predicted < best.predicted_s:
            best = DataModeDecision(
                cut_segment=cut,
                active=tuple(active),
                partition=partition,
                predicted_s=predicted,
                tail_range=tail_range,
            )
    return best


def explore_data(
    graph: DNNGraph,
    segments: Sequence[Segment],
    seg_range: Tuple[int, int],
    executors: Sequence[ExecutorModel],
    quanta: int = 20,
    tail_seconds: Optional[Callable[[Tuple[int, int]], float]] = None,
    max_cuts: int = 10,
    min_sigma: int = 1,
    table: Optional[SegmentTable] = None,
) -> Optional[DataModeDecision]:
    """Best data-partitioning decision over depth cuts and share splits.

    ``tail_seconds`` prices the unpartitioned remainder (defaults to
    executor 0 -- the data holder -- computing it).  Decisions whose
    share DP activates fewer than ``min_sigma`` executors are skipped
    (``min_sigma=2`` forces a genuinely distributed decision and leaves
    the sigma=1 case to the caller).

    ``table`` supplies O(1) range costs over ``segments``; pass the
    caller's table (e.g. ``graph.segment_table()``) to avoid rebuilding
    prefix sums per call.
    """
    if table is None:
        table = SegmentTable(segments)
    valid_cuts, items = _data_share_items(graph, segments, seg_range, max_cuts, table)
    # One batched share-DP sweep prices every candidate cut at once.
    share_plans = data_shares_dp_batch(items, executors, quanta=quanta)
    return _select_data_decision(
        graph, segments, seg_range, executors, valid_cuts, items, share_plans,
        tail_seconds, min_sigma, table,
    )


@dataclass(frozen=True)
class DataSearchSpec:
    """One (graph, segment range) data-partitioning search, for
    :func:`explore_data_batch`.  Field semantics match the keyword
    arguments of :func:`explore_data`."""

    graph: DNNGraph
    segments: Sequence[Segment]
    seg_range: Tuple[int, int]
    table: SegmentTable
    tail_seconds: Optional[Callable[[Tuple[int, int]], float]] = None
    min_sigma: int = 1
    max_cuts: int = 10


def explore_data_batch(
    specs: Sequence[DataSearchSpec],
    executors: Sequence[ExecutorModel],
    quanta: int = 20,
) -> List[Optional[DataModeDecision]]:
    """Run :func:`explore_data` for many searches against the same
    executor set in one batched share-DP sweep.

    This is the serving co-planner's kernel: a backlog of concurrent
    requests (one spec per distinct model) prices *all* of its candidate
    depth cuts in a single :func:`data_shares_dp_batch` call, paying the
    numpy dispatch overhead once per backlog instead of once per
    request.  Results are identical to per-spec :func:`explore_data`
    calls (each item's DP is independent of its batch neighbours).
    """
    gathered = [
        _data_share_items(spec.graph, spec.segments, spec.seg_range, spec.max_cuts, spec.table)
        for spec in specs
    ]
    all_items = [item for _, items in gathered for item in items]
    share_plans = data_shares_dp_batch(all_items, executors, quanta=quanta)
    decisions: List[Optional[DataModeDecision]] = []
    offset = 0
    for spec, (valid_cuts, items) in zip(specs, gathered):
        plans = share_plans[offset : offset + len(items)]
        offset += len(items)
        decisions.append(
            _select_data_decision(
                spec.graph, spec.segments, spec.seg_range, executors,
                valid_cuts, items, plans, spec.tail_seconds, spec.min_sigma, spec.table,
            )
        )
    return decisions


@dataclass(frozen=True)
class ExchangeDecision:
    """Outcome of the local (intra-device) exchange-semantics search.

    Unlike the FTP decision, tiles carry *exact* proportional FLOPs (no
    halo recompute); ``exchange_equiv_bytes`` is the per-boundary halo
    traffic plus a byte-equivalent of the per-layer sync latency, to be
    charged over the memory fabric.
    """

    cut_segment: int
    active: Tuple[Tuple[int, float], ...]  # (executor index, share)
    per_tile_flops: Tuple[Dict[str, int], ...]
    exchange_equiv_bytes: int
    predicted_s: float
    tail_range: Optional[Tuple[int, int]]

    @property
    def sigma(self) -> int:
        return len(self.active)


#: Per-graph memo of each segment's halo contribution (bytes, events);
#: keyed weakly so throwaway graphs do not pin cache entries.
_HALO_CACHE: "WeakKeyDictionary[DNNGraph, Dict[Tuple[str, ...], Tuple[int, int]]]" = (
    WeakKeyDictionary()
)


def _segment_halo(graph: DNNGraph, seg: Segment) -> Tuple[int, int]:
    """(halo bytes, exchange events) contributed by one segment's layers."""
    per_graph = _HALO_CACHE.setdefault(graph, {})
    entry = per_graph.get(seg.layer_names)
    if entry is None:
        halo_bytes = 0
        events = 0
        for name in seg.layer_names:
            layer = graph.layer(name)
            if not layer.is_spatial or layer.kernel <= 1 or not layer.inputs:
                continue
            producer_spec = graph.spec(layer.inputs[0])
            halo_bytes += producer_spec.rows_bytes(layer.kernel - 1)
            events += 1
        entry = (halo_bytes, events)
        per_graph[seg.layer_names] = entry
    return entry


#: Per-graph memo of whole-range equivalent bytes, valid only for the
#: graph's memoised segment chain (identity-checked by the caller).
_EQUIV_CACHE: "WeakKeyDictionary[DNNGraph, Dict[Tuple[int, int, float, float], int]]" = (
    WeakKeyDictionary()
)


def exchange_equiv_bytes(
    graph: DNNGraph,
    segments: Sequence[Segment],
    seg_range: Tuple[int, int],
    latency_s: float,
    bandwidth_bytes_s: float,
) -> int:
    """Per-boundary halo traffic of a range, with per-layer sync latency
    folded in as equivalent bytes (so a single transfer charge prices it).

    Range results are memoised when ``segments`` is the graph's own
    memoised chain (the common case: the local DSE re-prices the same
    ranges every stage and every plan).
    """
    lo, hi = seg_range
    if segments is graph.segments():
        cache = _EQUIV_CACHE.setdefault(graph, {})
        key = (lo, hi, latency_s, bandwidth_bytes_s)
        value = cache.get(key)
        if value is None:
            value = _exchange_equiv_bytes_walk(
                graph, segments, lo, hi, latency_s, bandwidth_bytes_s
            )
            cache[key] = value
        return value
    return _exchange_equiv_bytes_walk(graph, segments, lo, hi, latency_s, bandwidth_bytes_s)


def _exchange_equiv_bytes_walk(
    graph: DNNGraph,
    segments: Sequence[Segment],
    lo: int,
    hi: int,
    latency_s: float,
    bandwidth_bytes_s: float,
) -> int:
    halo_bytes = 0
    events = 0
    for seg in segments[lo : hi + 1]:
        seg_bytes, seg_events = _segment_halo(graph, seg)
        halo_bytes += seg_bytes
        events += seg_events
    return halo_bytes + int(2 * events * latency_s * bandwidth_bytes_s)


def explore_data_exchange(
    graph: DNNGraph,
    segments: Sequence[Segment],
    seg_range: Tuple[int, int],
    executors: Sequence[ExecutorModel],
    intra_latency_s: float,
    intra_bw_bytes_s: float,
    quanta: int = 10,
    tail_seconds: Optional[Callable[[Tuple[int, int]], float]] = None,
    max_cuts: int = 10,
    min_sigma: int = 2,
    table: Optional[SegmentTable] = None,
) -> Optional[ExchangeDecision]:
    """Best intra-device data split with per-layer halo exchange.

    Same (depth, sigma, shares) search as :func:`explore_data`, but
    tiles stay resident through the chunk and swap halo rows over the
    memory fabric instead of recomputing them -- the semantics that
    makes thin CPU tiles viable on small feature maps.
    """
    if table is None:
        table = SegmentTable(segments)
    lo, hi = seg_range
    valid_cuts, items = _data_share_items(graph, segments, seg_range, max_cuts, table)
    # One batched share-DP sweep prices every candidate cut at once.
    share_plans = data_shares_dp_batch(items, executors, quanta=quanta)
    if tail_seconds is None:

        def tail_seconds(tail_range: Tuple[int, int]) -> float:
            return executors[0].compute_seconds(
                table.range_flops(tail_range[0], tail_range[1]),
                table.range_ops(tail_range[0], tail_range[1]),
            )

    best: Optional[ExchangeDecision] = None
    for cut, (chunk_flops, wire, chunk_ops), share_plan in zip(valid_cuts, items, share_plans):
        active = [(idx, share) for idx, share in enumerate(share_plan.shares) if share > 0]
        if len(active) < max(min_sigma, 1):
            continue
        # Height feasibility: every tile needs at least one output row.
        prefix_lo, prefix_hi = spatial_prefix(graph, segments, (lo, cut))
        if prefix_hi < lo:
            continue
        out_height = graph.spec(segments[prefix_hi].layer_names[-1]).height
        if out_height < len(active):
            continue
        equiv = exchange_equiv_bytes(
            graph, segments, (lo, prefix_hi), intra_latency_s, intra_bw_bytes_s
        )
        per_tile = []
        worst = 0.0
        for slot, (executor_idx, share) in enumerate(active):
            executor = executors[executor_idx]
            tile_flops = {cls: int(value * share) for cls, value in chunk_flops.items()}
            per_tile.append(tile_flops)
            boundaries = (1 if slot > 0 else 0) + (1 if slot < len(active) - 1 else 0)
            finish = (
                executor.fixed_s
                + executor.comm_seconds(share * wire + boundaries * equiv)
                + executor.compute_seconds(tile_flops, chunk_ops)
            )
            worst = max(worst, finish)
        predicted = worst
        tail_range: Optional[Tuple[int, int]] = None
        if cut < hi:
            tail_range = (cut + 1, hi)
            predicted += tail_seconds(tail_range)
        if best is None or predicted < best.predicted_s:
            best = ExchangeDecision(
                cut_segment=cut,
                active=tuple(active),
                per_tile_flops=tuple(per_tile),
                exchange_equiv_bytes=equiv,
                predicted_s=predicted,
                tail_range=tail_range,
            )
    return best


class StagedExchangeSearch:
    """The staged local search's per-stage decisions for one range end.

    The staged search consumes a segment range front to back: each
    stage picks a depth cut for the remaining range ``[start..hi]`` and
    recurses on the tail ``[cut+1..hi]``.  That decision is
    ``explore_data_exchange(graph, segments, (start, hi), ...)``; it
    does not depend on where the consumed range began, so one search
    serves every piece that ends at ``hi`` on the same executors.  A
    decision is computed the first time a stage reads it and kept.
    """

    def __init__(
        self,
        graph: DNNGraph,
        segments: Sequence[Segment],
        hi: int,
        executors: Sequence[ExecutorModel],
        intra_latency_s: float,
        intra_bw_bytes_s: float,
        quanta: int = 10,
        tail_seconds: Optional[Callable[[Tuple[int, int]], float]] = None,
        max_cuts: int = 10,
        min_sigma: int = 2,
        table: Optional[SegmentTable] = None,
    ):
        #: Strong reference: keys built from ``id(graph)`` stay unambiguous.
        self.graph = graph
        self._hi = hi
        self._explore = partial(
            explore_data_exchange,
            graph,
            segments,
            executors=executors,
            intra_latency_s=intra_latency_s,
            intra_bw_bytes_s=intra_bw_bytes_s,
            quanta=quanta,
            tail_seconds=tail_seconds,
            max_cuts=max_cuts,
            min_sigma=min_sigma,
            table=SegmentTable(segments) if table is None else table,
        )
        self._decisions: Dict[int, Optional[ExchangeDecision]] = {}

    def decide(self, start: int) -> Optional[ExchangeDecision]:
        """The exchange decision for the remaining range ``[start..hi]``."""
        if start not in self._decisions:
            self._decisions[start] = self._explore((start, self._hi))
        return self._decisions[start]


@dataclass(frozen=True)
class ExchangeCost:
    """Per-layer halo exchange pricing (MoDNN full-depth semantics)."""

    per_tile_flops: Tuple[Dict[str, int], ...]
    exchange_bytes_per_boundary: int
    exchange_events_per_boundary: int

    def total_exchange_bytes(self, num_tiles: int) -> int:
        return self.exchange_bytes_per_boundary * max(num_tiles - 1, 0) * 2


def exchange_costs(
    graph: DNNGraph,
    segments: Sequence[Segment],
    seg_range: Tuple[int, int],
    shares: Sequence[float],
) -> ExchangeCost:
    """Cost of full-depth row-band partitioning with per-layer exchange.

    Each tile computes exactly its share of every spatial layer (no
    recompute) but must receive ``(kernel-1)`` halo rows of each
    spatial layer's input from its neighbours -- one exchange event per
    such layer per boundary per direction.
    """
    lo, hi = seg_range
    prefix_lo, prefix_hi = spatial_prefix(graph, segments, seg_range)
    if prefix_hi < prefix_lo:
        raise PartitionError("range has no spatial prefix to exchange over")
    per_tile: List[Dict[str, int]] = []
    total = sum(shares)
    for share in shares:
        fraction = share / total
        tile_flops = {cls: 0 for cls in LAYER_CLASSES}
        for seg in segments[prefix_lo : prefix_hi + 1]:
            for cls, value in seg.flops_by_class.items():
                tile_flops[cls] += int(value * fraction)
        per_tile.append(tile_flops)
    halo_bytes = 0
    halo_events = 0
    for seg in segments[prefix_lo : prefix_hi + 1]:
        seg_bytes, seg_events = _segment_halo(graph, seg)
        halo_bytes += seg_bytes
        halo_events += seg_events
    return ExchangeCost(
        per_tile_flops=tuple(per_tile),
        exchange_bytes_per_boundary=halo_bytes,
        exchange_events_per_boundary=halo_events,
    )
