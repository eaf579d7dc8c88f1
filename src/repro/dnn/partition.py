"""Partition semantics: model-wise blocks and data-wise tiles.

*Model partitioning* groups consecutive segments (see
:meth:`repro.dnn.graph.DNNGraph.segments`) into blocks that are shipped
to different executors and run as a pipeline; only the single cut
tensor crosses between blocks.

*Data partitioning* splits the spatial output of a (sub-)network into
row bands.  Each tile receives the input rows its receptive field
demands (Fused-Tile-Partitioning style halo), so tiles are fully
independent until the merge -- no per-layer exchange is needed and the
result is bit-identical to unpartitioned inference, which is what the
paper's "accuracy unchanged" claim amounts to.  The halo inflates tile
FLOPs; the inflation is computed exactly from the demand walk.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.dnn.graph import DNNGraph, Segment
from repro.dnn.layers import LAYER_CLASSES
from repro.dnn.tensors import TensorSpec
from repro.fastpath import fastpath_enabled


class PartitionError(ValueError):
    """Raised for infeasible partition requests."""


# --------------------------------------------------------------------------
# Model partitioning
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelBlock:
    """A contiguous run of segments ``[seg_lo, seg_hi]`` (inclusive)."""

    seg_lo: int
    seg_hi: int
    flops: int
    flops_by_class: Dict[str, int]
    in_spec: TensorSpec
    out_spec: TensorSpec
    weight_bytes: int
    spatial: bool

    @property
    def name(self) -> str:
        return f"blk[{self.seg_lo}:{self.seg_hi}]"

    @property
    def num_segments(self) -> int:
        return self.seg_hi - self.seg_lo + 1


def aggregate_block(segments: Sequence[Segment], seg_lo: int, seg_hi: int) -> ModelBlock:
    """Merge segments ``[seg_lo, seg_hi]`` into one block."""
    if not 0 <= seg_lo <= seg_hi < len(segments):
        raise PartitionError(f"invalid segment range [{seg_lo}, {seg_hi}] of {len(segments)}")
    members = segments[seg_lo : seg_hi + 1]
    by_class = {cls: 0 for cls in LAYER_CLASSES}
    for seg in members:
        for cls, flops in seg.flops_by_class.items():
            by_class[cls] = by_class.get(cls, 0) + flops
    return ModelBlock(
        seg_lo=seg_lo,
        seg_hi=seg_hi,
        flops=sum(seg.flops for seg in members),
        flops_by_class=by_class,
        in_spec=members[0].in_spec,
        out_spec=members[-1].out_spec,
        weight_bytes=sum(seg.weight_bytes for seg in members),
        spatial=all(seg.spatial for seg in members),
    )


@dataclass(frozen=True)
class ModelPartition:
    """An ordered, complete grouping of a segment range into blocks."""

    graph_name: str
    blocks: Tuple[ModelBlock, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise PartitionError("model partition needs at least one block")
        for prev, cur in zip(self.blocks, self.blocks[1:]):
            if cur.seg_lo != prev.seg_hi + 1:
                raise PartitionError(f"non-contiguous blocks: {prev.name} then {cur.name}")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_flops(self) -> int:
        return sum(block.flops for block in self.blocks)


def make_model_partition(
    graph: DNNGraph,
    cuts: Sequence[int],
    segments: Optional[Sequence[Segment]] = None,
    seg_range: Optional[Tuple[int, int]] = None,
) -> ModelPartition:
    """Build a :class:`ModelPartition` from interior cut positions.

    ``cuts`` lists segment indices after which the network is cut: a cut
    at ``c`` separates segments ``<= c`` from segments ``> c``.  An
    empty ``cuts`` produces a single block covering the range.
    """
    segs = list(segments) if segments is not None else graph.segments()
    lo, hi = seg_range if seg_range is not None else (0, len(segs) - 1)
    boundaries = sorted(set(cuts))
    for cut in boundaries:
        if not lo <= cut < hi:
            raise PartitionError(f"cut {cut} outside segment range [{lo}, {hi})")
    blocks: List[ModelBlock] = []
    start = lo
    for cut in boundaries + [hi]:
        blocks.append(aggregate_block(segs, start, cut))
        start = cut + 1
    return ModelPartition(graph_name=graph.name, blocks=tuple(blocks))


# --------------------------------------------------------------------------
# Data partitioning
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TileSpec:
    """One data tile: a band of rows of the spatial prefix output.

    ``out_lo/out_hi`` are rows of the prefix-end tensor this tile owns;
    ``in_lo/in_hi`` the (clamped) rows of the range-entry tensor it must
    receive, halo included.  ``flops`` is halo-inflated.
    """

    index: int
    out_lo: int
    out_hi: int
    in_lo: int
    in_hi: int
    flops: int
    flops_by_class: Dict[str, int]
    input_bytes: int
    output_bytes: int

    @property
    def out_rows(self) -> int:
        return self.out_hi - self.out_lo

    @property
    def in_rows(self) -> int:
        return self.in_hi - self.in_lo


@dataclass(frozen=True)
class DataPartition:
    """A σ-way spatial split of a segment range, plus its non-spatial tail."""

    graph_name: str
    seg_lo: int
    seg_hi: int
    prefix_end: str
    entry_layer: str
    tiles: Tuple[TileSpec, ...]
    tail_flops: int
    tail_flops_by_class: Dict[str, int]
    prefix_out_spec: TensorSpec

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @property
    def total_flops(self) -> int:
        """Halo-inflated total work (>= unpartitioned work)."""
        return sum(tile.flops for tile in self.tiles) + self.tail_flops

    @property
    def halo_overhead_flops(self) -> int:
        """Extra work caused by halo recomputation."""
        return self.total_flops - self._base_flops

    @property
    def base_flops(self) -> int:
        """Unpartitioned (1-tile) work of the same segment range."""
        return self._base_flops

    #: Unpartitioned reference cost, set by the factory functions.
    _base_flops: int = 0


def spatial_prefix(
    graph: DNNGraph,
    segments: Optional[Sequence[Segment]] = None,
    seg_range: Optional[Tuple[int, int]] = None,
) -> Tuple[int, int]:
    """Longest run ``[lo, p]`` of spatial segments at the start of the range.

    Returns ``(lo, p)``; ``p < lo`` means the range starts non-spatial
    and cannot be data partitioned.
    """
    segs = segments if segments is not None else graph.segments()
    lo, hi = seg_range if seg_range is not None else (0, len(segs) - 1)
    if hi >= lo and segs is graph.segments():
        return lo, graph.segment_table().spatial_prefix_end(lo, hi)
    p = lo - 1
    for idx in range(lo, hi + 1):
        if not segs[idx].spatial:
            break
        p = idx
    return lo, p


def even_shares(count: int) -> Tuple[float, ...]:
    """Equal fractional shares for ``count`` tiles."""
    if count < 1:
        raise PartitionError(f"need at least one tile, got {count}")
    return tuple(1.0 / count for _ in range(count))


def rows_from_shares(height: int, shares: Sequence[float]) -> List[Tuple[int, int]]:
    """Split ``height`` rows into contiguous bands proportional to shares.

    Zero-row bands are dropped.  Shares must be positive; they are
    normalised internally.
    """
    if height < 1:
        raise PartitionError(f"cannot split {height} rows")
    if not shares:
        raise PartitionError("no shares given")
    if any(share < 0 for share in shares):
        raise PartitionError(f"negative share in {shares}")
    total = sum(shares)
    if total <= 0:
        raise PartitionError(f"shares sum to zero: {shares}")
    bands: List[Tuple[int, int]] = []
    cursor = 0
    acc = 0.0
    for share in shares:
        acc += share / total
        end = min(height, round(acc * height))
        if end > cursor:
            bands.append((cursor, end))
            cursor = end
    if cursor < height:
        if bands:
            bands[-1] = (bands[-1][0], height)
        else:
            bands.append((0, height))
    return bands


def make_data_partition_from_shares(
    graph: DNNGraph,
    shares: Sequence[float],
    segments: Optional[Sequence[Segment]] = None,
    seg_range: Optional[Tuple[int, int]] = None,
    band: Optional[Tuple[int, int]] = None,
) -> DataPartition:
    """Split a segment range data-wise with per-tile workload shares.

    The spatial prefix of the range is tiled; remaining segments form
    the tail (executed after the merge).  ``band`` restricts the split
    to output rows ``[band[0], band[1])`` of the prefix -- this is how
    the local partitioner re-splits a tile it received from the global
    tier.  When a band is given, the tail is NOT included (the global
    merge owns it).  Raises :class:`PartitionError` if the range has no
    spatial prefix.

    On the fast path, partitions over the graph's own memoised segment
    chain are memoised per (range, shares, band): the DSE re-prices the
    same handful of share splits against every load bucket, and a
    :class:`DataPartition` is an immutable value.  Callers must treat
    the returned partition (and its tiles) as read-only -- all in-repo
    callers copy ``flops_by_class`` before mutating.
    """
    use_memo = fastpath_enabled() and (segments is None or segments is graph.segments())
    if use_memo:
        per_graph = _PARTITIONS.setdefault(graph, OrderedDict())
        key = (tuple(shares), seg_range, band)
        hit = _lru_lookup(per_graph, key)
        if hit is not None:
            return hit
    partition = _make_data_partition_from_shares(graph, shares, segments, seg_range, band)
    if use_memo:
        _lru_store(per_graph, key, partition, _PARTITIONS_MAX)
    return partition


#: Per-graph memo of assembled partitions (fast path only; see
#: :func:`make_data_partition_from_shares`).
_PARTITIONS: "WeakKeyDictionary[DNNGraph, OrderedDict]" = WeakKeyDictionary()
_PARTITIONS_MAX = 2048


def _make_data_partition_from_shares(
    graph: DNNGraph,
    shares: Sequence[float],
    segments: Optional[Sequence[Segment]] = None,
    seg_range: Optional[Tuple[int, int]] = None,
    band: Optional[Tuple[int, int]] = None,
) -> DataPartition:
    segs = segments if segments is not None else graph.segments()
    lo, hi = seg_range if seg_range is not None else (0, len(segs) - 1)
    prefix_lo, prefix_hi = spatial_prefix(graph, segs, (lo, hi))
    if prefix_hi < prefix_lo:
        raise PartitionError(f"{graph.name}: segment range [{lo},{hi}] has no spatial prefix")
    prefix_segs = segs[prefix_lo : prefix_hi + 1]
    prefix_end = prefix_segs[-1].layer_names[-1]
    entry_layer = _entry_layer(graph, segs, lo)
    out_spec = graph.spec(prefix_end)
    if band is None:
        band = (0, out_spec.height)
    band_lo_limit, band_hi_limit = band
    if not 0 <= band_lo_limit < band_hi_limit <= out_spec.height:
        raise PartitionError(f"invalid band {band} for height {out_spec.height}")
    bands = [
        (band_lo_limit + b_lo, band_lo_limit + b_hi)
        for b_lo, b_hi in rows_from_shares(band_hi_limit - band_lo_limit, shares)
    ]
    # The vectorized tile pricing caches per-layer arrays and per-band
    # results on the graph; range indices are only meaningful against
    # the graph's own memoised chain, hence the identity check.
    use_fast = fastpath_enabled() and segs is graph.segments()
    if not use_fast:
        prefix_layer_names = [name for seg in prefix_segs for name in seg.layer_names]
        layer_set = set(prefix_layer_names) | {entry_layer}

    tiles: List[TileSpec] = []
    for index, (band_lo, band_hi) in enumerate(bands):
        if use_fast:
            flops, by_class, in_lo, in_hi = _tile_costs_fast(
                graph, segs, prefix_lo, prefix_hi, prefix_end, entry_layer, band_lo, band_hi
            )
        else:
            demands = graph.demand_rows(prefix_end, band_lo, band_hi, stop_layer=entry_layer)
            flops = 0
            by_class = {cls: 0 for cls in LAYER_CLASSES}
            for name in prefix_layer_names:
                if name not in demands:
                    continue
                rows_lo, rows_hi = graph.clamp_rows(name, demands[name])
                height = graph.spec(name).height
                share = (rows_hi - rows_lo) / height
                layer_flops = int(round(graph.layer_flops(name) * share))
                flops += layer_flops
                cls = graph.layer(name).layer_class
                by_class[cls] = by_class.get(cls, 0) + layer_flops
            missing = [n for n in demands if n not in layer_set]
            if missing:
                raise PartitionError(
                    f"{graph.name}: demand walk escaped the segment range via {missing[:3]}"
                )
            in_lo, in_hi = graph.clamp_rows(entry_layer, demands[entry_layer])
        entry_spec = graph.spec(entry_layer)
        tiles.append(
            TileSpec(
                index=index,
                out_lo=band_lo,
                out_hi=band_hi,
                in_lo=in_lo,
                in_hi=in_hi,
                flops=flops,
                flops_by_class=by_class,
                input_bytes=entry_spec.rows_bytes(in_hi - in_lo),
                output_bytes=out_spec.rows_bytes(band_hi - band_lo),
            )
        )

    include_tail = band == (0, out_spec.height)
    tail_segs = segs[prefix_hi + 1 : hi + 1] if include_tail else []
    tail_by_class = {cls: 0 for cls in LAYER_CLASSES}
    for seg in tail_segs:
        for cls, flops in seg.flops_by_class.items():
            tail_by_class[cls] = tail_by_class.get(cls, 0) + flops
    tail_flops = sum(seg.flops for seg in tail_segs)
    band_fraction = (band_hi_limit - band_lo_limit) / out_spec.height
    base = int(sum(seg.flops for seg in prefix_segs) * band_fraction) + tail_flops
    return DataPartition(
        graph_name=graph.name,
        seg_lo=lo,
        seg_hi=hi,
        prefix_end=prefix_end,
        entry_layer=entry_layer,
        tiles=tuple(tiles),
        tail_flops=tail_flops,
        tail_flops_by_class=tail_by_class,
        prefix_out_spec=out_spec,
        _base_flops=base,
    )


def make_data_partition(
    graph: DNNGraph,
    num_tiles: int,
    segments: Optional[Sequence[Segment]] = None,
    seg_range: Optional[Tuple[int, int]] = None,
) -> DataPartition:
    """Even σ-way data split of a segment range."""
    return make_data_partition_from_shares(
        graph, even_shares(num_tiles), segments=segments, seg_range=seg_range
    )


#: Per-graph caches for the vectorized tile pricing.  Keys are ranges
#: into the graph's memoised segment chain, so entries stay valid for
#: the graph's lifetime; weak keys let throwaway graphs be collected
#: and the per-graph LRU bounds keep long-lived serving processes from
#: accumulating bands indefinitely.
_PREFIX_ARRAYS: "WeakKeyDictionary[DNNGraph, OrderedDict]" = WeakKeyDictionary()
_PREFIX_ARRAYS_MAX = 128
_TILE_COSTS: "WeakKeyDictionary[DNNGraph, OrderedDict]" = WeakKeyDictionary()
_TILE_COSTS_MAX = 4096


def clear_partition_memos() -> None:
    """Drop the module-level partition memos (assembled partitions,
    per-layer arrays, tile costs).  Benchmarks call this between
    measurements so a warmed memo from one configuration cannot
    subsidise another."""
    _PARTITIONS.clear()
    _PREFIX_ARRAYS.clear()
    _TILE_COSTS.clear()


def _lru_lookup(per_graph: "OrderedDict", key):
    entry = per_graph.get(key)
    if entry is not None:
        per_graph.move_to_end(key)
    return entry


def _lru_store(per_graph: "OrderedDict", key, entry, max_entries: int) -> None:
    per_graph[key] = entry
    if len(per_graph) > max_entries:
        per_graph.popitem(last=False)


def _prefix_arrays(graph: DNNGraph, segs: Sequence[Segment], prefix_lo: int, prefix_hi: int):
    """Cached per-layer (names, heights, flops, class codes) arrays for
    the layers of segments ``[prefix_lo..prefix_hi]``."""
    per_graph = _PREFIX_ARRAYS.setdefault(graph, OrderedDict())
    key = (prefix_lo, prefix_hi)
    entry = _lru_lookup(per_graph, key)
    if entry is None:
        names = tuple(
            name for seg in segs[prefix_lo : prefix_hi + 1] for name in seg.layer_names
        )
        heights = np.array([graph.spec(name).height for name in names], dtype=np.int64)
        layer_flops = np.array([graph.layer_flops(name) for name in names], dtype=np.float64)
        class_code = {cls: code for code, cls in enumerate(LAYER_CLASSES)}
        codes = np.array(
            [class_code[graph.layer(name).layer_class] for name in names], dtype=np.int64
        )
        entry = (names, frozenset(names), heights, layer_flops, codes)
        _lru_store(per_graph, key, entry, _PREFIX_ARRAYS_MAX)
    return entry


def _tile_costs_fast(
    graph: DNNGraph,
    segs: Sequence[Segment],
    prefix_lo: int,
    prefix_hi: int,
    prefix_end: str,
    entry_layer: str,
    band_lo: int,
    band_hi: int,
) -> Tuple[int, Dict[str, int], int, int]:
    """Vectorized halo-inflated tile pricing: (flops, by_class, in_lo, in_hi).

    Numerically identical to the per-layer Python loop: the same clamp
    / ``share = rows / height`` / round-half-even arithmetic runs on
    float64 arrays, and all accumulations are exact integer sums.
    Results are memoised per (range, band) on the graph.
    """
    cache = _TILE_COSTS.setdefault(graph, OrderedDict())
    key = (prefix_lo, prefix_hi, entry_layer, band_lo, band_hi)
    hit = _lru_lookup(cache, key)
    if hit is not None:
        flops, by_class, in_lo, in_hi = hit
        return flops, dict(by_class), in_lo, in_hi
    names, names_set, heights, layer_flops, codes = _prefix_arrays(
        graph, segs, prefix_lo, prefix_hi
    )
    demands = graph.demand_rows(prefix_end, band_lo, band_hi, stop_layer=entry_layer)
    rows_lo = np.zeros(len(names), dtype=np.int64)
    rows_hi = np.zeros(len(names), dtype=np.int64)
    for idx, name in enumerate(names):
        demand = demands.get(name)
        if demand is not None:  # absent layers keep a zero-row (no-op) range
            rows_lo[idx] = demand[0]
            rows_hi[idx] = demand[1]
    missing = [n for n in demands if n not in names_set and n != entry_layer]
    if missing:
        raise PartitionError(
            f"{graph.name}: demand walk escaped the segment range via {missing[:3]}"
        )
    clamped_lo = np.maximum(rows_lo, 0)
    clamped_hi = np.minimum(rows_hi, heights)
    share = (clamped_hi - clamped_lo) / heights
    tile_flops = np.rint(layer_flops * share).astype(np.int64)
    flops = int(tile_flops.sum())
    per_class = np.bincount(codes, weights=tile_flops, minlength=len(LAYER_CLASSES))
    by_class = {cls: int(per_class[code]) for code, cls in enumerate(LAYER_CLASSES)}
    in_lo, in_hi = graph.clamp_rows(entry_layer, demands[entry_layer])
    _lru_store(cache, key, (flops, by_class, in_lo, in_hi), _TILE_COSTS_MAX)
    return flops, dict(by_class), in_lo, in_hi


def _entry_layer(graph: DNNGraph, segments: Sequence[Segment], seg_lo: int) -> str:
    """The cut-tensor layer feeding segment ``seg_lo``."""
    if seg_lo == 0:
        return graph.layers[0].name
    return segments[seg_lo - 1].layer_names[-1]


def max_useful_tiles(graph: DNNGraph, seg_range: Optional[Tuple[int, int]] = None) -> int:
    """Upper bound on tile count: rows of the spatial prefix output."""
    segs = graph.segments()
    lo, hi = seg_range if seg_range is not None else (0, len(segs) - 1)
    prefix_lo, prefix_hi = spatial_prefix(graph, segs, (lo, hi))
    if prefix_hi < prefix_lo:
        return 1
    prefix_end = segs[prefix_hi].layer_names[-1]
    return graph.spec(prefix_end).height
