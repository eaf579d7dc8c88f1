"""Dynamic-programming partition-point search (the paper's DSE core).

The paper uses "a standard subset sum algorithm for an efficient
recursive search with time complexity O(n*m)", applied identically at
the global level (arguments: DNN + ``Psi``) and the local level
(arguments: DNN + ``psi``) -- only the executor rate vector changes.
This module implements both searches over an abstract
:class:`ExecutorModel`, so devices and processors plug in uniformly:

- :func:`data_shares_dp` -- subset-sum style distribution of workload
  quanta over executors, minimising the parallel makespan (data
  partitioning, Eq. 6).
- :func:`pipeline_cuts_dp` -- cut-point placement and block assignment
  for model partitioning, minimising single-inference latency as the
  sum of per-block compute and cut-tensor transfer times (Eq. 5).

Greedy reference implementations are provided for the ablation study
(DESIGN.md section 5.3).

Both DP kernels ship in two interchangeable forms: a pure-Python
reference (``*_reference``, the seed implementation, kept as the
executable specification) and a vectorized numpy fast path that
computes the same tables in batched array sweeps.  The fast path
replicates the reference's floating-point evaluation order and
tie-breaking exactly, so plans are byte-identical; randomized
equivalence tests in ``tests/core/test_dp_fastpath.py`` enforce this.
Set ``REPRO_DSE_FASTPATH=0`` to force the reference implementations;
each dispatcher reads the hatch itself, per call.  The fast path keeps
its results in process-lifetime :class:`~repro.core.memo.Memo` tables
(share plans by value, pipeline plans and geometries by chain
identity), which :func:`clear_result_memos` empties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# clear_result_memos is re-exported: benchmarks clear the memos through dp.
from repro.core.memo import Ref, clear_result_memos, result_memo  # noqa: F401
from repro.dnn.graph import Segment
from repro.dnn.layers import LAYER_CLASSES
from repro.fastpath import fastpath_enabled


@dataclass(frozen=True)
class ExecutorModel:
    """Abstract executor seen by the DP: a device (global tier) or a
    processor (local tier).

    ``rates`` are per-layer-class compute rates [FLOPs/s];
    ``comm_bytes_s`` the rate at which input data reaches this executor
    (network ``beta`` globally, memory fabric ``mu`` locally;
    ``float('inf')`` for the executor already holding the data);
    ``fixed_s`` the fixed per-task cost (setup + message latency).
    """

    ident: str
    rates: Mapping[str, float]
    comm_bytes_s: float
    fixed_s: float = 0.0
    #: Per-operator dispatch time of this executor.
    dispatch_s: float = 0.0

    def __post_init__(self) -> None:
        # Written as ``not (x > 0)`` so NaN fails every check.
        if not self.comm_bytes_s > 0:
            raise ValueError(
                f"{self.ident}: comm_bytes_s must be positive, got {self.comm_bytes_s}"
            )
        for field in ("fixed_s", "dispatch_s"):
            value = getattr(self, field)
            if not 0 <= value < float("inf"):
                raise ValueError(f"{self.ident}: {field} must be finite and >= 0, got {value}")
        for cls, rate in self.rates.items():
            if not rate > 0:
                raise ValueError(f"{self.ident}: rates[{cls!r}] must be positive, got {rate}")

    def compute_seconds(self, flops_by_class: Mapping[str, int], num_ops: int = 0) -> float:
        seconds = num_ops * self.dispatch_s
        for cls, flops in flops_by_class.items():
            if flops:
                seconds += flops / self.rates[cls]
        return seconds

    def comm_seconds(self, size_bytes: float) -> float:
        return size_bytes / self.comm_bytes_s


def scale_flops(flops_by_class: Mapping[str, int], factor: float) -> Dict[str, int]:
    """Scale a FLOPs breakdown by a share factor."""
    if factor < 0:
        raise ValueError(f"negative scale factor {factor}")
    return {cls: int(flops * factor) for cls, flops in flops_by_class.items() if flops}


# --------------------------------------------------------------------------
# Data partitioning: subset-sum share allocation
# --------------------------------------------------------------------------


def _compute_matrix(
    flop_dicts: Sequence[Mapping[str, int]],
    num_ops: Sequence[float],
    executors: Sequence[ExecutorModel],
) -> np.ndarray:
    """``compute_seconds(flops, ops)`` of every (item, executor) pair,
    shaped ``(items, executors)``.

    When every dict's keys are an ordered subset of ``LAYER_CLASSES``
    (always true for graph-built costs) the matrix is accumulated column
    by column in that order -- bitwise identical to compute_seconds'
    dict loop, since skipped and missing zero terms add exactly 0.0.
    Otherwise every cell goes through compute_seconds.
    """
    if not all(
        tuple(flops) == tuple(cls for cls in LAYER_CLASSES if cls in flops)
        for flops in flop_dicts
    ):
        cells = [
            [executor.compute_seconds(flops, ops) for executor in executors]
            for flops, ops in zip(flop_dicts, num_ops)
        ]
        return np.array(cells, dtype=np.float64).reshape(len(flop_dicts), len(executors))
    rows = [[flops.get(cls, 0) for cls in LAYER_CLASSES] for flops in flop_dicts]
    flops_mat = np.array(rows, dtype=np.float64).reshape(len(rows), len(LAYER_CLASSES))
    dispatch = np.array([executor.dispatch_s for executor in executors], dtype=np.float64)
    out = np.asarray(num_ops, dtype=np.float64)[:, None] * dispatch
    for c, cls in enumerate(LAYER_CLASSES):
        if any(row[c] for row in rows):
            rates = np.array([executor.rates[cls] for executor in executors], dtype=np.float64)
            out = out + flops_mat[:, c, None] / rates
    return out


def _no_inflation(share: float) -> float:
    """Default inflation model: shares cost exactly their fraction."""
    return 1.0


def _executor_signature(executors: Sequence[ExecutorModel]) -> Tuple:
    """Hashable value identity of an executor list.

    Executor models are rebuilt from the cluster on every planning
    pass, so result memos key on their field values rather than object
    identity."""
    return tuple(
        (
            executor.ident,
            tuple(executor.rates.items()),
            executor.comm_bytes_s,
            executor.fixed_s,
            executor.dispatch_s,
        )
        for executor in executors
    )


def _compute_signature(executors: Sequence[ExecutorModel]) -> Tuple:
    """Hashable identity of what an executor list's compute times depend
    on: each executor's rates and dispatch time -- not its fixed or
    comm costs, which the load and the data holder set."""
    return tuple((tuple(executor.rates.items()), executor.dispatch_s) for executor in executors)


@dataclass(frozen=True)
class SharePlan:
    """Result of the data-partitioning DP."""

    shares: Tuple[float, ...]  # per executor, summing to 1; zeros allowed
    makespan_s: float


def data_shares_dp(
    flops_by_class: Mapping[str, int],
    input_bytes: int,
    executors: Sequence[ExecutorModel],
    quanta: int = 20,
    num_ops: int = 0,
    inflation: Callable[[float], float] = _no_inflation,
) -> SharePlan:
    """Distribute workload quanta over executors minimising makespan.

    The workload is cut into ``quanta`` equal units (the subset-sum
    granularity).  Executor ``e`` receiving ``q`` units finishes at::

        fixed_e + dispatch_e * num_ops
        + (q/Q) * input_bytes / comm_e
        + inflation(q/Q) * (q/Q) * T_e

    where ``T_e`` is the executor's full-workload compute time.  Every
    active executor dispatches *all* ``num_ops`` operators of the tiled
    range regardless of its share -- the term that makes very thin
    shares counter-productive.  The DP table ``best[i][r]`` holds the
    minimal makespan using executors ``i..`` for ``r`` remaining units
    -- the back-propagating block-by-block search the paper describes,
    in O(n_executors * quanta^2).

    Dispatches to the vectorized kernel (one numpy pass for the whole
    ``finish_time[executor, units]`` matrix plus batched DP sweeps)
    unless :func:`fastpath_enabled` is off; results are byte-identical.
    On the fast path, results are additionally memoised by value (the
    DSE re-prices identical workloads against identical executors every
    planning pass); plans are immutable, so sharing them is safe.
    """
    if fastpath_enabled():
        return data_shares_dp_batch(
            ((flops_by_class, input_bytes, num_ops),), executors, quanta, inflation
        )[0]
    return data_shares_dp_reference(
        flops_by_class, input_bytes, executors, quanta, num_ops, inflation
    )


def data_shares_dp_reference(
    flops_by_class: Mapping[str, int],
    input_bytes: int,
    executors: Sequence[ExecutorModel],
    quanta: int = 20,
    num_ops: int = 0,
    inflation: Callable[[float], float] = _no_inflation,
) -> SharePlan:
    """Pure-Python reference for :func:`data_shares_dp` (seed code)."""
    if quanta < 1:
        raise ValueError(f"quanta must be positive, got {quanta}")
    if not executors:
        raise ValueError("no executors")
    count = len(executors)
    full_compute = [executor.compute_seconds(flops_by_class) for executor in executors]

    def finish_time(executor_idx: int, units: int) -> float:
        if units == 0:
            return 0.0
        share = units / quanta
        executor = executors[executor_idx]
        comm = executor.comm_seconds(share * input_bytes)
        dispatch = num_ops * executor.dispatch_s
        return (
            executor.fixed_s
            + dispatch
            + comm
            + inflation(share) * share * full_compute[executor_idx]
        )

    INF = float("inf")
    # best[i][r]: minimal makespan distributing r units over executors i..
    best = [[INF] * (quanta + 1) for _ in range(count + 1)]
    choice = [[0] * (quanta + 1) for _ in range(count + 1)]
    best[count][0] = 0.0
    for i in range(count - 1, -1, -1):
        for r in range(quanta + 1):
            for q in range(r + 1):
                rest = best[i + 1][r - q]
                if rest == INF:
                    continue
                candidate = max(finish_time(i, q), rest)
                if candidate < best[i][r]:
                    best[i][r] = candidate
                    choice[i][r] = q
    shares: List[float] = []
    remaining = quanta
    for i in range(count):
        q = choice[i][remaining]
        shares.append(q / quanta)
        remaining -= q
    return SharePlan(shares=tuple(shares), makespan_s=best[0][quanta])


def data_shares_dp_batch(
    items: Sequence[Tuple[Mapping[str, int], int, int]],
    executors: Sequence[ExecutorModel],
    quanta: int = 20,
    inflation: Callable[[float], float] = _no_inflation,
) -> List[SharePlan]:
    """Run :func:`data_shares_dp` for many workloads against the same
    executors in one batched numpy sweep.

    ``items`` is a sequence of ``(flops_by_class, input_bytes,
    num_ops)`` tuples -- e.g. the tiled range of every candidate depth
    cut of one DSE pass.  The DP tables of all items roll backwards
    together, so the numpy call overhead is paid once per executor
    instead of once per (item, executor).  Results are byte-identical
    to per-item :func:`data_shares_dp` calls, and memoised by value on
    the fast path (default inflation only -- callback identity is not
    a stable cache key).
    """
    if not items:
        return []
    if not fastpath_enabled():
        return [
            data_shares_dp_reference(flops, in_bytes, executors, quanta, num_ops, inflation)
            for flops, in_bytes, num_ops in items
        ]
    if inflation is not _no_inflation:
        return _data_shares_dp_numpy_batch(items, executors, quanta, inflation)
    signature = (_executor_signature(executors), quanta)
    plans: List[Optional[SharePlan]] = []
    misses: List[Tuple[int, Tuple]] = []
    for idx, (flops, in_bytes, num_ops) in enumerate(items):
        key = (tuple(flops.items()), in_bytes, num_ops, signature)
        plan = _SHARES_RESULTS.get(key)
        plans.append(plan)
        if plan is None:
            misses.append((idx, key))
    if misses:
        fresh = _data_shares_dp_numpy_batch(
            [items[idx] for idx, _ in misses], executors, quanta, inflation
        )
        for (idx, key), plan in zip(misses, fresh):
            plans[idx] = plan
            _SHARES_RESULTS.put(key, plan)
    return plans


#: Value-keyed memo of share plans (fast path, default inflation only).
_SHARES_RESULTS = result_memo(8192)


#: Per-quanta cache of the (r, q) index geometry shared by every sweep.
_SHARES_GEOMETRY: Dict[int, Tuple] = {}


def _shares_geometry(quanta: int) -> Tuple:
    geometry = _SHARES_GEOMETRY.get(quanta)
    if geometry is None:
        r_idx = np.arange(quanta + 1)
        # [r, q] = units left after giving q; a negative count indexes
        # the +inf padding behind a best row.
        rel = r_idx[:, None] - r_idx[None, :]
        shares_vec = r_idx.astype(np.float64) / quanta
        geometry = (r_idx, rel, shares_vec)
        _SHARES_GEOMETRY[quanta] = geometry
    return geometry


def _data_shares_dp_numpy(
    flops_by_class: Mapping[str, int],
    input_bytes: int,
    executors: Sequence[ExecutorModel],
    quanta: int,
    num_ops: int,
    inflation: Callable[[float], float],
) -> SharePlan:
    return _data_shares_dp_numpy_batch(
        ((flops_by_class, input_bytes, num_ops),), executors, quanta, inflation
    )[0]


def _data_shares_dp_numpy_batch(
    items: Sequence[Tuple[Mapping[str, int], int, int]],
    executors: Sequence[ExecutorModel],
    quanta: int,
    inflation: Callable[[float], float],
) -> List[SharePlan]:
    """Vectorized :func:`data_shares_dp`: the finish-time matrices and
    the per-executor DP sweeps of all items run as whole-array numpy
    operations.

    Floating-point evaluation order matches the reference term by term
    (``((fixed + dispatch) + comm) + ((inflation * share) * T)`` and
    ``max`` / first-argmin tie-breaking), so plans are byte-identical.
    A NaN finish time (an infinite inflation times a zero compute) is a
    candidate the reference's ``<`` never takes; it becomes ``+inf``,
    which no candidate comparison takes either.
    """
    if quanta < 1:
        raise ValueError(f"quanta must be positive, got {quanta}")
    if not executors:
        raise ValueError("no executors")
    count = len(executors)
    num_items = len(items)
    r_idx, rel, shares_vec = _shares_geometry(quanta)
    if inflation is _no_inflation:
        # inflation(share) * share == 1.0 * share == share exactly.
        weight = shares_vec
    else:
        # Evaluated in Python exactly as the reference does per
        # finish_time call (the callback is arbitrary).
        weight = np.array(
            [inflation(q / quanta) * (q / quanta) for q in range(quanta + 1)],
            dtype=np.float64,
        )

    in_bytes_arr = np.array([item[1] for item in items], dtype=np.float64)
    num_ops_arr = np.array([item[2] for item in items], dtype=np.float64)
    # T[c, i]: full-workload compute time of item c on executor i.
    full_compute = _compute_matrix([item[0] for item in items], np.zeros(num_items), executors)
    comm_rates = np.array([executor.comm_bytes_s for executor in executors])
    fixed = np.array([executor.fixed_s for executor in executors])
    dispatch = np.array([executor.dispatch_s for executor in executors])
    # finish[c, i, q], every (item, executor) row at once.
    comm = (shares_vec[None, :] * in_bytes_arr[:, None])[:, None, :] / comm_rates[:, None]
    base = fixed + num_ops_arr[:, None] * dispatch
    with np.errstate(invalid="ignore"):
        finish = (base[:, :, None] + comm) + weight * full_compute[:, :, None]
    finish[np.isnan(finish)] = float("inf")
    finish[:, :, 0] = 0.0  # zero units: no work, no cost

    INF = float("inf")
    # best[c, r] for executors i.. ; rolls backwards exactly like the
    # reference's best[i+1] row, for every item at once.  The last
    # executor must take all r remaining units (every other q leaves a
    # +inf rest), so its sweep is closed-form: the first argmin of a
    # row that is +inf except at q = r is r, or 0 when that is +inf too.
    best = np.maximum(finish[:, count - 1, :], 0.0)
    choices = np.empty((count, num_items, quanta + 1), dtype=np.int64)
    choices[count - 1] = np.where(best == INF, 0, r_idx)
    padded = np.full((num_items, 2 * quanta + 1), INF)
    for i in range(count - 2, 0, -1):
        padded[:, : quanta + 1] = best
        rest = padded[:, rel]  # (c, r, q)
        cand = np.maximum(finish[:, i, None, :], rest, out=rest)
        choices[i] = cand.argmin(axis=2)  # first minimum == smallest q
        best = cand.min(axis=2)  # the same float the first argmin points at
    if count > 1:
        # The backtrack reads only row r = quanta of the first executor.
        cand = np.maximum(finish[:, 0, :], best[:, ::-1])  # rest = best[quanta - q]
        choices[0, :, quanta] = np.argmin(cand, axis=1)
        best = cand.min(axis=1)
    else:
        best = best[:, quanta]

    items_idx = np.arange(num_items)
    remaining = np.full(num_items, quanta)
    units = np.empty((num_items, count), dtype=np.int64)
    for i in range(count):
        units[:, i] = choices[i, items_idx, remaining]
        remaining -= units[:, i]
    shares_rows = (units / quanta).tolist()
    return [
        SharePlan(shares=tuple(shares), makespan_s=makespan)
        for shares, makespan in zip(shares_rows, best.tolist())
    ]


def data_shares_greedy(
    flops_by_class: Mapping[str, int],
    input_bytes: int,
    executors: Sequence[ExecutorModel],
) -> SharePlan:
    """Proportional-to-rate allocation (MoDNN-style reference heuristic).

    Ignores fixed costs and communication; used as the ablation
    baseline for the DP and as the MoDNN distribution rule.
    """
    del input_bytes
    rates = [executor.compute_seconds(flops_by_class) for executor in executors]
    inv = [1.0 / r if r > 0 else 0.0 for r in rates]
    total = sum(inv)
    if total == 0:
        raise ValueError("all executors have zero rate")
    shares = tuple(v / total for v in inv)
    makespan = max(
        executor.fixed_s + share * rate
        for executor, share, rate in zip(executors, shares, rates)
        if share > 0
    )
    return SharePlan(shares=shares, makespan_s=makespan)


# --------------------------------------------------------------------------
# Model partitioning: cut placement + block assignment
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelinePlan:
    """Result of the model-partitioning DP."""

    #: (seg_lo, seg_hi, executor index) per block, in execution order.
    blocks: Tuple[Tuple[int, int, int], ...]
    latency_s: float
    bottleneck_s: float  # slowest stage time; 1/throughput for streams

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def pipeline_cuts_dp(
    segments: Sequence[Segment],
    executors: Sequence[ExecutorModel],
    source_executor: int = 0,
    return_bytes_weight: float = 1.0,
    max_segments: int = 48,
) -> PipelinePlan:
    """Optimal contiguous-block pipeline over heterogeneous executors.

    ``dp[i][e]`` is the minimal latency to finish segments ``[0..i]``
    with the block containing segment ``i`` running on executor ``e``;
    transitions scan the previous cut point and executor.  Transfers
    charge the cut tensor at the *receiving* executor's communication
    rate (the data must reach it), plus its fixed message cost.  The
    final result returns to ``source_executor``.

    Long segment chains (ResNet-152 has >100) are coarsened to at most
    ``max_segments`` candidates by merging the cheapest neighbours --
    this preserves every high-value cut while bounding the O(n^2 m^2)
    scan; the paper's block-by-block convergence does the same thing.

    Dispatches to the vectorized kernel unless :func:`fastpath_enabled`
    is off; results are byte-identical.  The load only shifts each
    executor's ``fixed_s``, so the kernel splits the search in two:

    - the load-invariant geometry -- coarsened spans and per-executor
      compute prefix -- is built once per (chain, executor rates and
      dispatch) and memoised (:func:`_pipeline_geometry`);
    - each call derives the block costs from the prefix, prices the
      ``fixed_s``/comm terms, solves the table by whole-table
      relaxation rounds to its exact fixed point (:func:`_relax_cuts`)
      and reads parents along the chosen path only.

    On the fast path, plans are also memoised per (segment sequence
    identity, executor values): the same memoised chains and the same
    cluster views recur every planning pass, and plans are immutable.
    """
    if not fastpath_enabled():
        return pipeline_cuts_dp_reference(
            segments, executors, source_executor, return_bytes_weight, max_segments
        )
    # Memoise only immutable (tuple) chains: an identity key cannot
    # detect in-place mutation of a list between calls.
    if not isinstance(segments, tuple):
        return _pipeline_cuts_dp_numpy(
            segments, executors, source_executor, return_bytes_weight, max_segments
        )
    key = (
        Ref(segments),
        _executor_signature(executors),
        source_executor,
        return_bytes_weight,
        max_segments,
    )
    plan = _PIPELINE_RESULTS.get(key)
    if plan is None:
        plan = _pipeline_cuts_dp_numpy(
            segments, executors, source_executor, return_bytes_weight, max_segments
        )
        _PIPELINE_RESULTS.put(key, plan)
    return plan


#: Identity+value-keyed memo of pipeline plans (fast path only).
_PIPELINE_RESULTS = result_memo(256)


def pipeline_cuts_dp_reference(
    segments: Sequence[Segment],
    executors: Sequence[ExecutorModel],
    source_executor: int = 0,
    return_bytes_weight: float = 1.0,
    max_segments: int = 48,
) -> PipelinePlan:
    """Pure-Python reference for :func:`pipeline_cuts_dp` (seed code)."""
    if not segments:
        raise ValueError("no segments")
    if not executors:
        raise ValueError("no executors")
    if not 0 <= source_executor < len(executors):
        raise ValueError(f"bad source executor {source_executor}")
    if max_segments < 1:
        raise ValueError(f"max_segments must be >= 1, got {max_segments}")

    spans = _coarsen(segments, max_segments)
    n = len(spans)
    m = len(executors)
    compute = [
        [executors[e].compute_seconds(span_flops, span_ops) for e in range(m)]
        for span_flops, _, _, _, span_ops in spans
    ]
    _reject_nan_costs("compute", np.array(compute, dtype=np.float64).reshape(n, m).T, executors)
    links = [
        [executor.fixed_s + executor.comm_seconds(span[1]) for executor in executors]
        for span in spans
    ]
    _reject_nan_costs("transfer", np.array(links, dtype=np.float64).reshape(n, m).T, executors)
    # prefix compute sums per executor for O(1) block cost
    prefix = [[0.0] * (n + 1) for _ in range(m)]
    for e in range(m):
        for i in range(n):
            prefix[e][i + 1] = prefix[e][i] + compute[i][e]

    in_bytes = [span[1] for span in spans]
    out_bytes = [span[2] for span in spans]

    INF = float("inf")
    dp = [[INF] * m for _ in range(n)]
    parent: List[List[Optional[Tuple[int, int]]]] = [[None] * m for _ in range(n)]
    stage: List[List[float]] = [[0.0] * m for _ in range(n)]

    for i in range(n):
        for e in range(m):
            block_time = prefix[e][i + 1] - prefix[e][0]
            if e == source_executor:
                entry = block_time
            else:
                entry = executors[e].fixed_s + executors[e].comm_seconds(in_bytes[0]) + block_time
            if entry < dp[i][e]:
                dp[i][e] = entry
                parent[i][e] = None
                stage[i][e] = entry
    for i in range(n):
        for e in range(m):
            for j in range(i):
                for pe in range(m):
                    if dp[j][pe] == INF or pe == e:
                        continue
                    block_time = prefix[e][i + 1] - prefix[e][j + 1]
                    transfer = executors[e].fixed_s + executors[e].comm_seconds(in_bytes[j + 1])
                    candidate = dp[j][pe] + transfer + block_time
                    if candidate < dp[i][e]:
                        dp[i][e] = candidate
                        parent[i][e] = (j, pe)
                        stage[i][e] = transfer + block_time

    best_e, best_total = 0, INF
    for e in range(m):
        if dp[n - 1][e] == INF:
            continue
        back = 0.0
        if e != source_executor:
            back = (
                executors[source_executor].fixed_s
                + executors[source_executor].comm_seconds(out_bytes[n - 1]) * return_bytes_weight
            )
        total = dp[n - 1][e] + back
        if total < best_total:
            best_total, best_e = total, e

    blocks: List[Tuple[int, int, int]] = []
    i, e = n - 1, best_e
    bottleneck = 0.0
    while True:
        link = parent[i][e]
        j = -1 if link is None else link[0]
        seg_lo = spans[j + 1][3][0]
        seg_hi = spans[i][3][1]
        blocks.append((seg_lo, seg_hi, e))
        bottleneck = max(bottleneck, stage[i][e])
        if link is None:
            break
        i, e = link
    blocks.reverse()
    return PipelinePlan(blocks=tuple(blocks), latency_s=best_total, bottleneck_s=bottleneck)


def _pipeline_cuts_dp_numpy(
    segments: Sequence[Segment],
    executors: Sequence[ExecutorModel],
    source_executor: int,
    return_bytes_weight: float,
    max_segments: int,
) -> PipelinePlan:
    """Vectorized :func:`pipeline_cuts_dp`: the load-invariant geometry
    comes from :func:`_pipeline_geometry` and :func:`_relax_cuts` solves
    the table.

    Floating-point evaluation order matches the reference --
    ``(dp[j][pe] + transfer) + block`` per candidate, strict-improvement
    updates, row-major first-argmin tie-breaking -- so plans are
    byte-identical.
    """
    if not segments:
        raise ValueError("no segments")
    if not executors:
        raise ValueError("no executors")
    if not 0 <= source_executor < len(executors):
        raise ValueError(f"bad source executor {source_executor}")
    if max_segments < 1:
        raise ValueError(f"max_segments must be >= 1, got {max_segments}")

    spans, in_bytes, prefix = _pipeline_geometry(segments, executors, max_segments)
    m, n = prefix.shape
    blk = _block_costs(prefix)
    fixed = np.array([executor.fixed_s for executor in executors])
    comm = np.array([executor.comm_bytes_s for executor in executors])
    # link[e, k]: cost of executor e receiving span k's input tensor
    # (fixed message cost + bytes at e's comm rate).  Column 0 is the
    # entry head; column j + 1 the transfer of the cut after span j.
    with np.errstate(invalid="ignore"):
        link = fixed[:, None] + in_bytes / comm[:, None]
    _reject_nan_costs("transfer", link, executors)
    head = link[:, :1].copy()
    head[source_executor] = 0.0
    transfer = link[:, 1:]
    entry = head + prefix  # (e, i): one block [0..i] on e
    dp, _ = _relax_cuts(entry, transfer, blk)

    INF = float("inf")
    no_cut = _no_cut(m)
    best_e, best_total = 0, INF
    source = executors[source_executor]
    for e, value in enumerate(dp[:, n - 1].tolist()):
        if value == INF:
            continue
        back = 0.0
        if e != source_executor:
            back = source.fixed_s + source.comm_seconds(spans[n - 1][2]) * return_bytes_weight
        total = value + back
        if total < best_total:
            best_total, best_e = total, e

    # Parents along the chosen path only.  The reference keeps the first
    # (j, pe) in row-major order that strictly improves on the entry:
    # the first j whose minimum over pe is the cell's value, then the
    # first pe reproducing that value in float.
    blocks: List[Tuple[int, int, int]] = []
    i, e = n - 1, best_e
    bottleneck = 0.0
    while True:
        if dp[e, i] < entry[e, i]:
            others = (no_cut[e, :, None] + dp[:, :i]).min(axis=0)  # min over pe != e
            j = int(np.argmin((others + transfer[e, :i]) + blk[:i, e, i]))
            via = (dp[:, j] + transfer[e, j]) + blk[j, e, i]
            via[e] = INF
            parent_e = int(np.argmin(via))
            stage = float(transfer[e, j] + blk[j, e, i])
        else:
            j = -1
            stage = float(entry[e, i]) if entry[e, i] < INF else 0.0
        blocks.append((spans[j + 1][3][0], spans[i][3][1], e))
        bottleneck = max(bottleneck, stage)
        if j < 0:
            break
        i, e = j, parent_e
    blocks.reverse()
    return PipelinePlan(blocks=tuple(blocks), latency_s=best_total, bottleneck_s=bottleneck)


def _relax_cuts(
    entry: np.ndarray, transfer: np.ndarray, blk: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Solve the cut DP by whole-table relaxation rounds.

    ``entry[e, i]`` is the single-block cost of spans ``[0..i]`` on
    ``e``, ``transfer[e, j]`` the cost of ``e`` receiving the cut after
    span ``j`` and ``blk[j, e, i]`` the block ``[j+1..i]`` on ``e``
    (``+inf`` unless ``j < i``).  Each round computes, from the whole
    previous table, ``M[e, j] = min over pe != e of dp[pe, j]`` and
    ``dp[e, i] = min(entry, min over j of (M + transfer) + blk)``.

    Float addition rounds monotonically, so folding the ``pe`` minimum
    in before adding gives the same float as the reference's
    per-candidate ``(dp[j][pe] + transfer) + block``.  Column ``i``
    depends only on columns ``< i``, so after round ``k`` columns
    ``0..k`` hold the sequential DP's values; the rounds stop at the
    exact fixed point, after at most ``n`` of them, so a NaN-poisoned
    table cannot spin.  Values only fall from round to round, so a
    round re-adds only the cuts after the first column the previous
    round lowered: the earlier cuts' candidates are already in the
    running minimum ``cand``.  Returns the table and the rounds run.
    """
    m, n = entry.shape
    if n == 1 or m == 1:
        return entry, 0
    # Minima run over the leading axis, numpy's fastest reduction.
    no_cut = _no_cut(m)[:, :, None]  # (pe, e, 1)
    dp = entry
    cand = np.full((m, n), float("inf"))
    low = 0  # first column the last round lowered; earlier ones are final
    for rounds in range(1, n + 1):
        # Candidates through the cuts after spans j >= low.
        via = (no_cut + dp[:, None, low:-1]).min(axis=0) + transfer[:, low:]  # (e, j)
        np.minimum(cand, (via.T[:, :, None] + blk[low:]).min(axis=0), out=cand)
        relaxed = np.minimum(entry, cand)
        lowered = (relaxed[:, low:-1] != dp[:, low:-1]).any(axis=0)
        dp = relaxed
        if not lowered.any():
            break
        low += int(lowered.argmax())
    return dp, rounds


def _no_cut(m: int) -> np.ndarray:
    """``(e, pe)`` addend: ``+inf`` where ``pe == e`` (no cut), else
    ``0.0``, which adds exactly."""
    return np.where(np.eye(m, dtype=bool), float("inf"), 0.0)


def _reject_nan_costs(what: str, costs: np.ndarray, executors: Sequence[ExecutorModel]) -> None:
    """Raise on a NaN span cost (``costs`` shaped ``(executors, spans)``):
    the reference's comparisons would skip it silently and the
    relaxation rounds would never settle."""
    if np.isnan(costs).any():
        e, span = np.argwhere(np.isnan(costs))[0]
        raise ValueError(f"span {span}: {what} cost on executor {executors[e].ident} is NaN")


def _pipeline_geometry(
    segments: Sequence[Segment], executors: Sequence[ExecutorModel], max_segments: int
) -> Tuple[List, np.ndarray, np.ndarray]:
    """The load-invariant part of a pipeline search: coarsened spans,
    their input bytes and the per-executor compute prefix ``(e, i)``.

    It depends on the chain and on each executor's rates and dispatch
    time, not on ``fixed_s`` or ``comm_bytes_s`` -- the terms a load
    snapshot or the choice of source changes -- so replans under a new
    load reuse it.  Memoised for tuple chains, keyed by chain identity
    (like the plans); the tensors are read-only.
    """
    if not isinstance(segments, tuple):
        return _build_pipeline_geometry(segments, executors, max_segments)
    key = (Ref(segments), max_segments, _compute_signature(executors))
    geometry = _PIPELINE_GEOMETRY.get(key)
    if geometry is None:
        geometry = _build_pipeline_geometry(segments, executors, max_segments)
        _PIPELINE_GEOMETRY.put(key, geometry)
    return geometry


#: Identity+rates-keyed memo of pipeline geometries (fast path only).
#: An entry's arrays are ``O(n * m)``: the ``O(n^2 * m)`` block costs
#: are rebuilt per call, since long-lived blocks of that size raised
#: peak RSS by ~1 MB on churn_cold.
_PIPELINE_GEOMETRY = result_memo(64)


def _build_pipeline_geometry(
    segments: Sequence[Segment], executors: Sequence[ExecutorModel], max_segments: int
) -> Tuple[List, np.ndarray, np.ndarray]:
    spans = _coarsen(segments, max_segments)
    compute = _compute_matrix([span[0] for span in spans], [span[4] for span in spans], executors)
    _reject_nan_costs("compute", compute.T, executors)
    # np.cumsum is a ufunc accumulate: strictly sequential, like the
    # reference prefix.
    prefix = np.cumsum(compute.T, axis=1)  # (e, i) = reference prefix[e][i + 1]
    in_bytes = np.array([span[1] for span in spans], dtype=np.float64)
    return spans, in_bytes, prefix


def _block_costs(prefix: np.ndarray) -> np.ndarray:
    """``blk[j, e, i]``: the cost of block ``[j+1..i]`` on ``e``, the
    reference's ``prefix[e][i+1] - prefix[e][j+1]``; ``+inf`` unless
    ``j < i``."""
    m, n = prefix.shape
    blk = np.full((n - 1, m, n), float("inf"))
    cut_before = np.arange(n - 1)[:, None, None] < np.arange(n)
    with np.errstate(invalid="ignore"):
        np.subtract(prefix[None, :, :], prefix.T[: n - 1, :, None], out=blk, where=cut_before)
    if not np.isfinite(prefix).all():
        # inf - inf (an overflowed prefix) is NaN, a candidate the
        # reference's strict comparison skips: +inf does the same.
        blk[np.isnan(blk)] = float("inf")
    return blk


def pipeline_greedy(
    segments: Sequence[Segment],
    executors: Sequence[ExecutorModel],
    source_executor: int = 0,
) -> PipelinePlan:
    """Reference heuristic: run everything on the single fastest executor.

    This is what a no-search strategy would do; the ablation bench
    compares its plan quality against :func:`pipeline_cuts_dp`.
    """
    total = {cls: 0 for cls in LAYER_CLASSES}
    total_ops = sum(seg.num_ops for seg in segments)
    for seg in segments:
        for cls, flops in seg.flops_by_class.items():
            total[cls] = total.get(cls, 0) + flops
    best_e, best_time = source_executor, float("inf")
    for e, executor in enumerate(executors):
        time = executor.compute_seconds(total, total_ops)
        if e != source_executor:
            time += executor.fixed_s + executor.comm_seconds(segments[0].in_bytes)
            time += executors[source_executor].comm_seconds(segments[-1].out_bytes)
        if time < best_time:
            best_time, best_e = time, e
    block = (segments[0].index, segments[-1].index, best_e)
    return PipelinePlan(blocks=(block,), latency_s=best_time, bottleneck_s=best_time)


def _coarsen(
    segments: Sequence[Segment], max_segments: int
) -> List[Tuple[Dict[str, int], int, int, Tuple[int, int], int]]:
    """Merge adjacent segments until at most ``max_segments`` spans remain.

    Each span is (flops_by_class, in_bytes, out_bytes, (seg_lo, seg_hi),
    num_ops).  Pairs with the smallest combined FLOPs merge first, so
    the coarse chain keeps the expensive regions separable.

    Implemented as a lazy-deletion heap over neighbour pairs (O(n log
    n) instead of the reference's repeated O(n^2) min-scan).  Pair costs
    are exact ints and ties break on the left span's chain position, so
    the merge order -- and hence the output -- matches
    :func:`_coarsen_reference` exactly.
    """
    spans = [
        (
            dict(seg.flops_by_class),
            seg.in_bytes,
            seg.out_bytes,
            (seg.index, seg.index),
            seg.num_ops,
        )
        for seg in segments
    ]
    n = len(spans)
    if n <= max_segments:
        return spans
    totals = [sum(span[0].values()) for span in spans]
    prev_idx = list(range(-1, n - 1))
    next_idx = list(range(1, n + 1))  # n acts as the end sentinel
    alive = [True] * n
    # Chain order never changes under merges, so the left span's first
    # segment index is a stable stand-in for its current list position
    # (the reference's tie-break: leftmost pair among equal costs).
    order = [span[3][0] for span in spans]
    heap = [(totals[i] + totals[i + 1], order[i], i, i + 1) for i in range(n - 1)]
    heapq.heapify(heap)
    remaining = n
    while remaining > max_segments:
        cost, _, left_i, right_i = heapq.heappop(heap)
        if (
            not alive[left_i]
            or not alive[right_i]
            or next_idx[left_i] != right_i
            or cost != totals[left_i] + totals[right_i]
        ):
            continue  # stale entry: one side merged since it was pushed
        left, right = spans[left_i], spans[right_i]
        merged_flops = dict(left[0])
        for cls, flops in right[0].items():
            merged_flops[cls] = merged_flops.get(cls, 0) + flops
        spans[left_i] = (
            merged_flops,
            left[1],
            right[2],
            (left[3][0], right[3][1]),
            left[4] + right[4],
        )
        totals[left_i] += totals[right_i]
        alive[right_i] = False
        successor = next_idx[right_i]
        next_idx[left_i] = successor
        if successor < n:
            prev_idx[successor] = left_i
            heapq.heappush(
                heap, (totals[left_i] + totals[successor], order[left_i], left_i, successor)
            )
        predecessor = prev_idx[left_i]
        if predecessor >= 0:
            heapq.heappush(
                heap, (totals[predecessor] + totals[left_i], order[predecessor], predecessor, left_i)
            )
        remaining -= 1
    return [spans[i] for i in range(n) if alive[i]]


def _coarsen_reference(
    segments: Sequence[Segment], max_segments: int
) -> List[Tuple[Dict[str, int], int, int, Tuple[int, int], int]]:
    """Seed O(n^2) implementation of :func:`_coarsen`, kept as the
    executable specification for the equivalence tests."""
    spans = [
        (
            dict(seg.flops_by_class),
            seg.in_bytes,
            seg.out_bytes,
            (seg.index, seg.index),
            seg.num_ops,
        )
        for seg in segments
    ]
    while len(spans) > max_segments:
        best_idx, best_cost = 0, float("inf")
        for idx in range(len(spans) - 1):
            cost = sum(spans[idx][0].values()) + sum(spans[idx + 1][0].values())
            if cost < best_cost:
                best_cost, best_idx = cost, idx
        left, right = spans[best_idx], spans[best_idx + 1]
        merged_flops = dict(left[0])
        for cls, flops in right[0].items():
            merged_flops[cls] = merged_flops.get(cls, 0) + flops
        spans[best_idx : best_idx + 2] = [
            (merged_flops, left[1], right[2], (left[3][0], right[3][1]), left[4] + right[4])
        ]
    return spans
