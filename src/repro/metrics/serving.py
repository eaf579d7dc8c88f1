"""Serving-quality metrics: latency percentiles and SLO attainment.

An online serving system is judged by its tail, not its mean: the
paper's latency/energy tables (Fig. 5) average over closed-loop runs,
but the sustained-load serving experiment reports p50/p95/p99 and the
fraction of requests that met their service-level objective.

Two families of estimators:

- The exact, materialised helpers (:func:`percentile`,
  :func:`latency_percentiles`, :func:`slo_attainment`) -- what every
  figure artefact reports.
- O(1)-memory streaming aggregates for large-scale runs
  (:class:`P2Quantile`, the classic P-square estimator, and
  :class:`StreamingStats`, which combines completion counters, running
  moments, SLO attainment and a seeded reservoir sample) so a
  multi-million-request stream can be summarised without materialising
  every latency.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default percentile set reported by the serving harness.
SERVING_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class EpochRecord:
    """One specialization epoch boundary of a routed serving run.

    Recorded by the scheduler when the routing layer re-specializes:
    ``leaders`` are the per-shard physical leader devices *after* any
    re-election, ``specialty_models`` counts the models in each shard's
    specialty cluster, and ``routed_by_shard`` is the cumulative
    routing count at the boundary (deltas between consecutive records
    give the per-epoch traffic split).
    """

    index: int
    time_s: float
    leaders: Tuple[str, ...]
    specialty_models: Tuple[int, ...]
    routed_by_shard: Tuple[int, ...]
    reelected: bool


class RoutingStats:
    """Routing-layer accounting for one serving run.

    O(num_shards + num_epochs) memory -- one counter per shard plus one
    :class:`EpochRecord` per specialization epoch -- so it is safe at
    both trace levels.  ``spilled`` counts requests the cost-aware
    router diverted off their specialist shard (backlog over the spill
    threshold); ``cold`` counts requests routed with no prior
    signature/specialty (placed on the least-loaded shard, never
    defaulted to shard 0).
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.routed = [0] * num_shards
        self.spilled = 0
        self.cold = 0
        self.epochs = 0
        self.reelections = 0
        self.epoch_log: List[EpochRecord] = []

    def record_route(self, shard: int, spilled: bool = False, cold: bool = False) -> None:
        """Fold one routing decision into the per-shard counters."""
        self.routed[shard] += 1
        if spilled:
            self.spilled += 1
        if cold:
            self.cold += 1

    def record_epoch(
        self,
        time_s: float,
        leaders: Sequence[str],
        specialty_models: Sequence[int],
        reelected: bool,
    ) -> None:
        """Record one specialization-epoch boundary."""
        self.epochs += 1
        if reelected:
            self.reelections += 1
        self.epoch_log.append(
            EpochRecord(
                index=self.epochs,
                time_s=time_s,
                leaders=tuple(leaders),
                specialty_models=tuple(specialty_models),
                routed_by_shard=tuple(self.routed),
                reelected=reelected,
            )
        )

    @property
    def total_routed(self) -> int:
        return sum(self.routed)


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile with linear interpolation.

    Deterministic (no numpy dependency): sorts the values and
    interpolates between the two nearest ranks, matching
    ``numpy.percentile``'s default "linear" method.
    """
    if not values:
        raise ValueError("no values to take a percentile of")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def latency_percentiles(
    latencies: Sequence[float], pcts: Iterable[float] = SERVING_PERCENTILES
) -> Dict[str, float]:
    """``{"p50": .., "p95": .., "p99": ..}`` over a latency sample.

    Keys render integer percentiles without a trailing ``.0`` so the
    common ones read naturally (``p50``, ``p99``, ``p99.9``).
    """
    out = {}
    for pct in pcts:
        name = f"p{int(pct)}" if float(pct).is_integer() else f"p{pct}"
        out[name] = percentile(latencies, pct)
    return out


def slo_attainment(latencies: Sequence[float], slo_s: float) -> float:
    """Fraction of requests finishing within the latency SLO."""
    if slo_s <= 0:
        raise ValueError(f"SLO must be positive, got {slo_s}")
    if not latencies:
        raise ValueError("no latencies to judge against the SLO")
    met = sum(1 for latency in latencies if latency <= slo_s)
    return met / len(latencies)


class SignalWindow:
    """Completion latencies observed over one control interval.

    The SLO control plane (:mod:`repro.serving.control`) reads its
    feedback signal from here: the scheduler folds every completion
    latency in as it happens, and the controller drains the window at
    each wake -- so every AIMD decision judges exactly one interval's
    worth of signal, never stale history.  Keeps latencies only (no
    per-request identity), so it is safe at both trace levels.
    """

    __slots__ = ("_values",)

    def __init__(self):
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._values)

    def add(self, latency_s: float) -> None:
        """Fold one completion latency into the current interval."""
        self._values.append(latency_s)

    def tail(self, pct: float = 99.0) -> float:
        """The current interval's ``pct``-th latency percentile."""
        return percentile(self._values, pct)

    def drain(self) -> Tuple[float, ...]:
        """Return the interval's sample and reset for the next one."""
        values = tuple(self._values)
        self._values.clear()
        return values


class P2Quantile:
    """Streaming quantile estimate: the P-square algorithm (Jain &
    Chlamtac, 1985).

    Five markers track the running quantile in O(1) memory and O(1)
    work per observation; a piecewise-parabolic interpolation keeps the
    middle marker at the requested quantile.  The raw algorithm's
    middle marker converges only after dozens of observations -- at
    count 6 a p99 query would return roughly the *median* of the first
    samples -- so the estimator additionally keeps an exact bounded
    buffer of the first :data:`EXACT_WARMUP` observations and answers
    from it (the same linear-interpolation :func:`percentile` every
    figure artefact uses) until the markers have had that many updates.
    Memory stays O(1); small samples (and in particular anything below
    five observations) agree with the exact percentile path to the
    bit.
    """

    __slots__ = (
        "quantile",
        "_heights",
        "_positions",
        "_desired",
        "_increments",
        "_count",
        "_exact",
    )

    #: Observations answered exactly from the warmup buffer before the
    #: P-square markers take over (bounds the buffer, keeping O(1)
    #: memory).
    EXACT_WARMUP = 64

    def __init__(self, quantile: float):
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        self.quantile = quantile
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        q = quantile
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._count = 0
        self._exact: Optional[List[float]] = []

    @property
    def count(self) -> int:
        return self._count

    def add(self, value: float) -> None:
        self._count += 1
        if self._exact is not None:
            if self._count <= self.EXACT_WARMUP:
                self._exact.append(value)
            else:
                self._exact = None  # markers have warmed up; drop the buffer
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        # Locate the cell and clamp the extreme markers.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        positions = self._positions
        for idx in range(cell + 1, 5):
            positions[idx] += 1.0
        desired = self._desired
        for idx in range(5):
            desired[idx] += self._increments[idx]
        # Adjust the three interior markers toward their desired spots.
        for idx in range(1, 4):
            delta = desired[idx] - positions[idx]
            if (delta >= 1.0 and positions[idx + 1] - positions[idx] > 1.0) or (
                delta <= -1.0 and positions[idx - 1] - positions[idx] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(idx, step)
                if heights[idx - 1] < candidate < heights[idx + 1]:
                    heights[idx] = candidate
                else:
                    heights[idx] = self._linear(idx, step)
                positions[idx] += step

    def _parabolic(self, idx: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        return heights[idx] + step / (positions[idx + 1] - positions[idx - 1]) * (
            (positions[idx] - positions[idx - 1] + step)
            * (heights[idx + 1] - heights[idx])
            / (positions[idx + 1] - positions[idx])
            + (positions[idx + 1] - positions[idx] - step)
            * (heights[idx] - heights[idx - 1])
            / (positions[idx] - positions[idx - 1])
        )

    def _linear(self, idx: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        other = idx + int(step)
        return heights[idx] + step * (heights[other] - heights[idx]) / (
            positions[other] - positions[idx]
        )

    @property
    def value(self) -> float:
        """The current quantile estimate.

        Exact (bit-identical to :func:`percentile`) for the first
        :data:`EXACT_WARMUP` observations; the adapted P-square middle
        marker afterwards.
        """
        if self._count == 0:
            raise ValueError("no values observed")
        if self._exact is not None and self._count <= self.EXACT_WARMUP:
            return percentile(self._exact, self.quantile * 100.0)
        return self._heights[2]


class StreamingStats:
    """O(1)-memory latency aggregates for large-scale serving runs.

    Combines completion counters, running sum / min / max, optional SLO
    attainment, P-square tail estimates for the default serving
    percentiles, and a seeded reservoir sample (exact percentiles over
    the sample as a cross-check).  Deterministic for a given seed.
    """

    def __init__(
        self,
        pcts: Iterable[float] = SERVING_PERCENTILES,
        slo_s: Optional[float] = None,
        reservoir_size: int = 1024,
        seed: int = 0,
    ):
        if slo_s is not None and slo_s <= 0:
            raise ValueError(f"SLO must be positive, got {slo_s}")
        if reservoir_size < 1:
            raise ValueError(f"reservoir must hold at least one sample, got {reservoir_size}")
        self.pcts = tuple(pcts)
        self.slo_s = slo_s
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        self.slo_met = 0
        self._estimators = {pct: P2Quantile(pct / 100.0) for pct in self.pcts}
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        """Fold one completion latency into the aggregates."""
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if self.slo_s is not None and value <= self.slo_s:
            self.slo_met += 1
        for estimator in self._estimators.values():
            estimator.add(value)
        reservoir = self._reservoir
        if len(reservoir) < self._reservoir_size:
            reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._reservoir_size:
                reservoir[slot] = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no values observed")
        return self.total / self.count

    def slo_attainment(self) -> float:
        """Fraction of observed completions within the SLO."""
        if self.slo_s is None:
            raise ValueError("no SLO configured")
        if self.count == 0:
            raise ValueError("no values observed")
        return self.slo_met / self.count

    def percentiles(self) -> Dict[str, float]:
        """P-square estimates for the configured percentile set."""
        out = {}
        for pct in self.pcts:
            name = f"p{int(pct)}" if float(pct).is_integer() else f"p{pct}"
            out[name] = self._estimators[pct].value
        return out

    def reservoir_percentile(self, pct: float) -> float:
        """Exact percentile over the (seeded, uniform) reservoir sample."""
        if not self._reservoir:
            raise ValueError("no values observed")
        return percentile(self._reservoir, pct)

    @property
    def reservoir(self) -> Tuple[float, ...]:
        return tuple(self._reservoir)


def _fingerprint_fields(result) -> tuple:
    """The outcome fields both digests hash, ``sim_events`` excluded."""
    return (
        [
            (
                record.request.request_id,
                record.dispatched_s,
                record.completed_s,
                record.replanned,
                record.attempts,
            )
            for record in result.served
        ],
        result.makespan_s,
        result.energy_j,
        result.network_bytes,
        result.total_flops,
        result.batches,
        result.replans,
        result.steals,
        result.preemptions,
        result.planning_charged_s,
        result.leader_devices,
        result.dispatched_by_shard,
        result.failures,
        result.retries,
        result.shed,
        result.downgraded,
        result.fault_events,
        result.rejected,
    )


def _digest(fields: tuple) -> str:
    import hashlib

    return hashlib.sha256(repr(fields).encode()).hexdigest()


def result_fingerprint(result) -> str:
    """A canonical digest of everything a schedule-identical run must
    reproduce exactly.

    Hashes the full served timeline (request id, dispatch, completion,
    replan flag, attempts) plus the event count, makespan, energy,
    traffic and scheduler counters through ``repr`` -- floats render
    with exact ``repr`` round-tripping, so two results digest equal iff
    their schedules are byte-identical.  Used by the checkpoint/resume
    pins (cross-hatch matrix, ``benchmarks/test_bench_engine.py``): a
    resumed :class:`~repro.serving.result.ServingResult` must digest
    equal to the uninterrupted run's.
    """
    fields = _fingerprint_fields(result)
    return _digest((fields[0], result.sim_events) + fields[1:])


def outcome_fingerprint(result) -> str:
    """:func:`result_fingerprint` without ``sim_events``.

    The event count is an implementation detail of the engine: a
    change that schedules fewer events for the same simulated
    behaviour keeps this digest while ``result_fingerprint`` moves.
    Everything a run *reports* -- the served timeline, energy, bytes,
    FLOPs and every scheduler and fault counter -- is still hashed.
    """
    return _digest(_fingerprint_fields(result))
