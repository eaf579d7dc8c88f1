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

import math
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

    Zero-row bands are dropped.  Shares must be finite and
    non-negative with a positive sum; they are normalised internally.
    """
    if height < 1:
        raise PartitionError(f"cannot split {height} rows")
    if not shares:
        raise PartitionError("no shares given")
    for share in shares:
        if not (math.isfinite(share) and share >= 0):
            raise PartitionError(f"share {share!r} in {shares} is negative or not finite")
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
        hit = per_graph.get(key)
        if hit is not None:
            per_graph.move_to_end(key)
            return hit
    partition = _make_data_partition_from_shares(graph, shares, segments, seg_range, band)
    if use_memo:
        per_graph[key] = partition
        if len(per_graph) > _PARTITIONS_MAX:
            per_graph.popitem(last=False)
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
    # Halo-table row indices are only meaningful against the graph's
    # own memoised chain, hence the identity check.
    if fastpath_enabled() and segs is graph.segments():
        priced = _price_bands(graph, prefix_end, entry_layer, bands)
    else:
        prefix_layer_names = [name for seg in prefix_segs for name in seg.layer_names]
        priced = [
            _price_band_reference(graph, prefix_layer_names, prefix_end, entry_layer, band)
            for band in bands
        ]
    entry_spec = graph.spec(entry_layer)
    tiles = tuple(
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
        for index, ((band_lo, band_hi), (flops, by_class, in_lo, in_hi)) in enumerate(
            zip(bands, priced)
        )
    )

    include_tail = band == (0, out_spec.height)
    tail = aggregate_block(segs, prefix_hi + 1, hi) if include_tail and hi > prefix_hi else None
    tail_flops = tail.flops if tail else 0
    tail_by_class = tail.flops_by_class if tail else {cls: 0 for cls in LAYER_CLASSES}
    band_fraction = (band_hi_limit - band_lo_limit) / out_spec.height
    base = int(sum(seg.flops for seg in prefix_segs) * band_fraction) + tail_flops
    return DataPartition(
        graph_name=graph.name,
        seg_lo=lo,
        seg_hi=hi,
        prefix_end=prefix_end,
        entry_layer=entry_layer,
        tiles=tiles,
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


def clear_partition_memos() -> None:
    """Drop the module-level memo of assembled partitions.  Benchmarks
    call this between measurements so a warmed memo from one
    configuration cannot subsidise another.  The graph's halo tables
    are structural and stay."""
    _PARTITIONS.clear()


def _price_bands(
    graph: DNNGraph, prefix_end: str, entry_layer: str, bands: Sequence[Tuple[int, int]]
) -> List[Tuple[int, Dict[str, int], int, int]]:
    """Halo-inflated ``(flops, by_class, in_lo, in_hi)`` of every band
    at once, gathered from the graph's halo table of the prefix.
    Numerically identical to :func:`_price_band_reference`: the same
    clamped rows, ``share = rows / height`` and round-half-even run on a
    ``(bands, layers)`` array, and every sum is an exact integer sum."""
    table = graph.halo_table(prefix_end, entry_layer)
    if table.escaped:
        raise PartitionError(
            f"{graph.name}: demand walk escaped the segment range via {list(table.escaped[:3])}"
        )
    rows_lo, rows_hi = table.rows(bands)
    tile_flops = np.rint(table.work_flops * ((rows_hi - rows_lo) / table.heights)).astype(np.int64)
    entry = table.names.index(entry_layer)  # column 0: nothing precedes it
    return [
        (sum(by_class), dict(zip(LAYER_CLASSES, by_class)), in_lo, in_hi)
        for by_class, in_lo, in_hi in zip(
            (tile_flops @ table.class_onehot).tolist(),
            rows_lo[:, entry].tolist(),
            rows_hi[:, entry].tolist(),
        )
    ]


def _price_band_reference(graph, prefix_layer_names, prefix_end, entry_layer, band):
    """One band's ``(flops, by_class, in_lo, in_hi)`` from a plain
    demand walk, layer by layer (the ``REPRO_DSE_FASTPATH=0`` arm)."""
    demands = graph.demand_rows(prefix_end, *band, stop_layer=entry_layer)
    flops = 0
    by_class = {cls: 0 for cls in LAYER_CLASSES}
    for name in prefix_layer_names:
        if name not in demands:
            continue
        rows_lo, rows_hi = graph.clamp_rows(name, demands[name])
        share = (rows_hi - rows_lo) / graph.spec(name).height
        layer_flops = int(round(graph.layer_flops(name) * share))
        flops += layer_flops
        cls = graph.layer(name).layer_class
        by_class[cls] = by_class.get(cls, 0) + layer_flops
    layer_set = set(prefix_layer_names)
    missing = [n for n in demands if n not in layer_set and n != entry_layer]
    if missing:
        raise PartitionError(
            f"{graph.name}: demand walk escaped the segment range via {missing[:3]}"
        )
    in_lo, in_hi = graph.clamp_rows(entry_layer, demands[entry_layer])
    return flops, by_class, in_lo, in_hi


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
