"""DNN graphs as layer DAGs, plus segment (block-candidate) extraction.

The paper's system model treats a DNN as a DAG whose nodes are layers
and whose edges are tensors.  Partitioning operates on *segments*:
maximal runs between single-tensor cut points of the DAG.  A cut point
is a position in the topological order where exactly one live tensor
crosses -- cutting there turns the network into two sub-networks that
communicate a single activation, which is what model partitioning
ships between devices.

Branchy regions (Inception modules, residual bottlenecks) never contain
a cut point inside them, so segments absorb whole modules; this gives
the "heterogeneous block size" property of Table I for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dnn.layers import Input, Layer, LAYER_CLASSES, _pad_amount
from repro.dnn.tensors import TensorSpec


def _same_pad_height(producer_spec: TensorSpec, layer: Layer) -> Tuple[int, int]:
    """TF-style 'same' (pad_before, pad_after) along height for ``layer``."""
    return _pad_amount(producer_spec.height, layer.kernel, layer.stride, "same")


class GraphError(ValueError):
    """Raised for malformed layer graphs."""


@dataclass(frozen=True)
class Segment:
    """A contiguous partition candidate between two cut points.

    ``index`` is the segment position in the chain; ``in_spec`` is the
    tensor entering the segment (the previous cut tensor) and
    ``out_spec`` the tensor leaving it.  ``flops_by_class`` drives the
    heterogeneity-aware cost model.
    """

    index: int
    name: str
    layer_names: Tuple[str, ...]
    in_spec: TensorSpec
    out_spec: TensorSpec
    flops: int
    flops_by_class: Dict[str, int]
    weight_bytes: int
    spatial: bool

    @property
    def out_bytes(self) -> int:
        return self.out_spec.size_bytes

    @property
    def in_bytes(self) -> int:
        return self.in_spec.size_bytes

    @property
    def num_ops(self) -> int:
        """Operator count -- drives per-op dispatch cost on processors."""
        return len(self.layer_names)


@dataclass(frozen=True, eq=False)
class HaloTable:
    """Every band's demand walk for one ``(end_layer, stop_layer)`` pair
    (see :meth:`DNNGraph.halo_table`).  Column ``k`` is the reached layer
    ``names[k]``, in layer order.  ``lo[r, k]``/``hi[r, k]`` are its
    clamped first/end demanded rows when the band starts/ends at output
    row ``r``.  ``work_flops`` is zero for the stop layer, whose rows are
    received, not computed.  ``escaped`` names reached layers that come
    before the stop layer: the walk left the range it was bounded to."""

    names: Tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    heights: np.ndarray
    work_flops: np.ndarray
    #: ``class_onehot[k, c]`` is 1 where ``names[k]`` is of class ``LAYER_CLASSES[c]``.
    class_onehot: np.ndarray
    escaped: Tuple[str, ...]

    def __post_init__(self) -> None:
        for array in (self.lo, self.hi, self.heights, self.work_flops, self.class_onehot):
            array.flags.writeable = False  # shared by every planning pass

    def rows(self, bands: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """Clamped ``(lo, hi)`` demands of the bands ``[out_lo, out_hi)``,
        shaped ``(bands, layers)``.  Raises :class:`GraphError` for an
        empty band or one outside the output (a negative index would
        wrap around silently)."""
        height = len(self.lo) - 1
        for out_lo, out_hi in bands:
            if not 0 <= out_lo < out_hi <= height:
                raise GraphError(f"band [{out_lo}, {out_hi}) is empty or outside [0, {height})")
        return self.lo[[lo for lo, _ in bands]], self.hi[[hi for _, hi in bands]]


class DNNGraph:
    """An immutable, validated DNN layer DAG with cached cost data."""

    def __init__(self, name: str, layers: Sequence[Layer]):
        if not layers:
            raise GraphError("empty graph")
        self.name = name
        self.layers: Tuple[Layer, ...] = tuple(layers)
        self._by_name: Dict[str, Layer] = {}
        for layer in self.layers:
            if layer.name in self._by_name:
                raise GraphError(f"duplicate layer name: {layer.name}")
            self._by_name[layer.name] = layer
        if not isinstance(self.layers[0], Input):
            raise GraphError("first layer must be an Input")
        if self.layers[0].inputs:
            raise GraphError("Input layer cannot have producers")
        self._validate_topology()
        self._specs: Dict[str, TensorSpec] = {}
        self._flops: Dict[str, int] = {}
        self._weights: Dict[str, int] = {}
        self._propagate()
        self._consumers: Dict[str, List[str]] = {layer.name: [] for layer in self.layers}
        for layer in self.layers:
            for producer in layer.inputs:
                self._consumers[producer].append(layer.name)
        # Plan-level caches: the graph is immutable, so segment
        # extraction, the prefix-sum cost table and the halo tables are
        # computed once and shared by every planning pass.
        self._segments_cache: Optional[Tuple[Segment, ...]] = None
        self._segment_table = None
        self._halo_tables: Dict[Tuple[str, Optional[str]], HaloTable] = {}

    # Construction helpers ---------------------------------------------

    def _validate_topology(self) -> None:
        seen = set()
        for layer in self.layers:
            for producer in layer.inputs:
                if producer not in self._by_name:
                    raise GraphError(f"{layer.name}: unknown producer {producer!r}")
                if producer not in seen:
                    raise GraphError(
                        f"{layer.name}: producer {producer!r} appears later in the layer order"
                    )
            if layer.inputs == () and not isinstance(layer, Input):
                raise GraphError(f"{layer.name}: non-input layer without producers")
            seen.add(layer.name)

    def _propagate(self) -> None:
        for layer in self.layers:
            in_specs = tuple(self._specs[p] for p in layer.inputs)
            try:
                spec = layer.output_spec(*in_specs)
            except (TypeError, ValueError) as exc:
                raise GraphError(f"shape propagation failed at {layer.name}: {exc}") from exc
            self._specs[layer.name] = spec
            self._flops[layer.name] = layer.flops(*in_specs) if in_specs else 0
            weight_fn = getattr(layer, "weight_bytes_for", None)
            if weight_fn is not None and in_specs:
                self._weights[layer.name] = weight_fn(in_specs[0])
            else:
                self._weights[layer.name] = layer.weight_bytes()

    # Accessors ----------------------------------------------------------

    def layer(self, name: str) -> Layer:
        return self._by_name[name]

    def spec(self, name: str) -> TensorSpec:
        """Output tensor spec of a layer."""
        return self._specs[name]

    def layer_flops(self, name: str) -> int:
        return self._flops[name]

    def consumers(self, name: str) -> Tuple[str, ...]:
        return tuple(self._consumers[name])

    @property
    def input_spec(self) -> TensorSpec:
        return self._specs[self.layers[0].name]

    @property
    def output_spec(self) -> TensorSpec:
        return self._specs[self.layers[-1].name]

    @property
    def total_flops(self) -> int:
        return sum(self._flops.values())

    @property
    def total_weight_bytes(self) -> int:
        return sum(self._weights.values())

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def flops_by_class(self, layer_names: Iterable[str] = ()) -> Dict[str, int]:
        """FLOPs broken down by layer class, for the given layers (default all)."""
        names = tuple(layer_names) or tuple(layer.name for layer in self.layers)
        breakdown = {cls: 0 for cls in LAYER_CLASSES}
        for name in names:
            layer = self._by_name[name]
            breakdown[layer.layer_class] = breakdown.get(layer.layer_class, 0) + self._flops[name]
        return breakdown

    # Cut points & segments ----------------------------------------------

    def cut_points(self) -> List[int]:
        """Indices ``i`` such that only ``layers[i]``'s tensor crosses to ``layers[>i]``.

        The Input layer (index 0) is always a cut point; the final layer
        is a cut point by convention (the network output).
        """
        position = {layer.name: idx for idx, layer in enumerate(self.layers)}
        max_consumer = [idx for idx in range(len(self.layers))]
        for layer in self.layers:
            for producer in layer.inputs:
                p = position[producer]
                max_consumer[p] = max(max_consumer[p], position[layer.name])
        cuts = []
        running = -1  # furthest consumer of any layer strictly before idx
        for idx in range(len(self.layers) - 1):
            if running <= idx and max_consumer[idx] > idx:
                cuts.append(idx)
            running = max(running, max_consumer[idx])
        cuts.append(len(self.layers) - 1)
        return cuts

    def segments(self) -> Tuple[Segment, ...]:
        """Partition candidates: maximal layer runs between cut points.

        The chain is computed once and memoised (the graph is
        immutable); callers receive the shared tuple, so repeated
        planning passes pay for segment extraction only once.
        """
        if self._segments_cache is not None:
            return self._segments_cache
        cuts = self.cut_points()
        segments: List[Segment] = []
        for seg_idx in range(len(cuts) - 1):
            lo, hi = cuts[seg_idx], cuts[seg_idx + 1]
            members = self.layers[lo + 1 : hi + 1]
            names = tuple(layer.name for layer in members)
            flops = sum(self._flops[n] for n in names)
            weights = sum(self._weights[n] for n in names)
            in_spec = self._specs[self.layers[lo].name]
            out_spec = self._specs[self.layers[hi].name]
            spatial = (
                in_spec.is_spatial
                and out_spec.is_spatial
                and all(layer.is_spatial for layer in members)
            )
            segments.append(
                Segment(
                    index=seg_idx,
                    name=f"{self.name}/seg{seg_idx}",
                    layer_names=names,
                    in_spec=in_spec,
                    out_spec=out_spec,
                    flops=flops,
                    flops_by_class=self.flops_by_class(names),
                    weight_bytes=weights,
                    spatial=spatial,
                )
            )
        self._segments_cache = tuple(segments)
        return self._segments_cache

    def segment_table(self):
        """Memoised :class:`~repro.dnn.segment_table.SegmentTable` over
        the full segment chain (O(1) range cost queries)."""
        if self._segment_table is None:
            from repro.dnn.segment_table import SegmentTable

            self._segment_table = SegmentTable(self.segments())
        return self._segment_table

    # Halo (receptive field) computation ----------------------------------

    def demand_rows(
        self,
        end_layer: str,
        out_lo: int,
        out_hi: int,
        stop_layer: Optional[str] = None,
    ) -> Dict[str, Tuple[int, int]]:
        """Per-layer *unclamped* row demands to produce ``[out_lo, out_hi)``
        of ``end_layer``'s output.

        Walks the DAG backwards from ``end_layer``; at joins the union
        (min lo / max hi) of all consumers' demands is taken.  Layers
        without spatial meaning demand the full extent of their input.
        Ranges may extend past ``[0, height)`` -- the excess is exactly
        the zero padding a tile executor must apply; clamp with
        :meth:`clamp_rows` when a physical range is needed.

        ``stop_layer`` bounds the walk: its demand is recorded but its
        producers are not visited.  Pass the cut-tensor layer feeding a
        segment range to keep the walk inside the range.

        The walk is plain and uncached: it is the specification that
        :meth:`halo_table` is tested against, and the per-band pricing
        of the ``REPRO_DSE_FASTPATH=0`` reference arm.  Raises
        :class:`GraphError` for an empty or inverted band.
        """
        if end_layer not in self._by_name:
            raise GraphError(f"unknown layer {end_layer!r}")
        if out_lo >= out_hi:
            raise GraphError(f"empty or inverted band [{out_lo}, {out_hi}) of {end_layer!r}")
        return self._demand_walk(end_layer, out_lo, out_hi, stop_layer, min, max)

    def _demand_walk(self, end_layer, out_lo, out_hi, stop_layer, lower, upper):
        """The backward walk behind :meth:`demand_rows` and
        :meth:`halo_table`: ``out_lo``/``out_hi`` are ints or row arrays,
        joined with ``lower``/``upper`` (``min``/``max`` or their numpy
        element-wise forms)."""
        needed = {end_layer: (out_lo, out_hi)}
        for layer in reversed(self.layers):
            if layer.name not in needed or layer.name == stop_layer:
                continue
            lo, hi = needed[layer.name]
            for producer in layer.inputs:
                if layer.is_spatial:
                    p_lo = lo * layer.stride
                    p_hi = (hi - 1) * layer.stride + layer.kernel
                    if layer.padding == "same":
                        pad_before, _ = _same_pad_height(self._specs[producer], layer)
                        p_lo -= pad_before
                        p_hi -= pad_before
                else:
                    p_lo, p_hi = 0, self._specs[producer].height
                prev = needed.get(producer)
                if prev is None:
                    needed[producer] = (p_lo, p_hi)
                else:
                    needed[producer] = (lower(prev[0], p_lo), upper(prev[1], p_hi))
        return needed

    def halo_table(self, end_layer: str, stop_layer: Optional[str] = None) -> HaloTable:
        """Memoised :class:`HaloTable`: the :meth:`demand_rows` walk of
        every band of ``end_layer``'s output, clamped.

        The walk is separable: a layer's ``lo`` is a min of affine maps
        of ``out_lo`` alone, its ``hi`` a max of affine maps of
        ``out_hi`` alone, and the layers reached do not depend on the
        band.  So one walk over all ``height + 1`` output rows at once
        answers every band.  Tables are keyed by layer pair, never by
        band, and live as long as the graph."""
        key = (end_layer, stop_layer)
        if key in self._halo_tables:
            return self._halo_tables[key]
        if end_layer not in self._by_name:
            raise GraphError(f"unknown layer {end_layer!r}")
        rows = np.arange(self._specs[end_layer].height + 1)
        needed = self._demand_walk(end_layer, rows, rows, stop_layer, np.minimum, np.maximum)
        reached = [(pos, layer) for pos, layer in enumerate(self.layers) if layer.name in needed]
        names = tuple(layer.name for _, layer in reached)
        stop_pos = next((pos for pos, layer in reached if layer.name == stop_layer), 0)
        heights = np.array([self._specs[name].height for name in names])
        lo, hi = (
            np.stack([np.broadcast_to(needed[name][side], rows.shape) for name in names], axis=1)
            for side in (0, 1)
        )
        classes = [LAYER_CLASSES.index(layer.layer_class) for _, layer in reached]
        self._halo_tables[key] = table = HaloTable(
            names=names,
            lo=np.maximum(lo, 0),
            hi=np.minimum(hi, heights),
            heights=heights,
            work_flops=np.array([0 if n == stop_layer else self._flops[n] for n in names], float),
            class_onehot=np.eye(len(LAYER_CLASSES), dtype=np.int64)[classes],
            escaped=tuple(layer.name for pos, layer in reached if pos < stop_pos),
        )
        return table

    def clamp_rows(self, layer_name: str, rows: Tuple[int, int]) -> Tuple[int, int]:
        """Clamp a demand range to the layer's physical output height."""
        height = self._specs[layer_name].height
        return max(rows[0], 0), min(rows[1], height)

    def required_input_rows(self, out_lo: int, out_hi: int) -> Tuple[int, int]:
        """Input row range needed for final-output rows ``[out_lo, out_hi)``."""
        needed = self.demand_rows(self.layers[-1].name, out_lo, out_hi)
        return self.clamp_rows(self.layers[0].name, needed[self.layers[0].name])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        gflops = self.total_flops / 1e9
        return f"DNNGraph({self.name!r}, layers={self.num_layers}, {gflops:.2f} GFLOPs)"


class GraphBuilder:
    """Convenience builder producing a validated :class:`DNNGraph`.

    Sequential ``add`` wires each layer to the previous one unless the
    layer already declares explicit ``inputs``.
    """

    def __init__(self, name: str, input_spec: TensorSpec):
        self._name = name
        self._layers: List[Layer] = [Input(name="input", spec=input_spec)]
        self._last = "input"
        self._counter: Dict[str, int] = {}

    def unique(self, prefix: str) -> str:
        """Generate a unique layer name with the given prefix."""
        count = self._counter.get(prefix, 0)
        self._counter[prefix] = count + 1
        return f"{prefix}_{count}" if count else prefix

    def add(self, layer: Layer, *, after: str | Sequence[str] | None = None) -> str:
        """Append ``layer``; wire to ``after`` (default: previous layer)."""
        if layer.inputs:
            wired = layer
        else:
            if after is None:
                producers: Tuple[str, ...] = (self._last,)
            elif isinstance(after, str):
                producers = (after,)
            else:
                producers = tuple(after)
            wired = _with_inputs(layer, producers)
        if wired.name in {existing.name for existing in self._layers}:
            raise GraphError(f"duplicate layer name: {wired.name}")
        self._layers.append(wired)
        self._last = wired.name
        return wired.name

    @property
    def last(self) -> str:
        return self._last

    def build(self) -> DNNGraph:
        return DNNGraph(self._name, self._layers)


def _with_inputs(layer: Layer, producers: Tuple[str, ...]) -> Layer:
    """A copy of ``layer`` wired to the given producers."""
    import dataclasses

    return dataclasses.replace(layer, inputs=producers)
