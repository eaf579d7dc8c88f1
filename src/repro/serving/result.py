"""Serving-run records: per-request timelines, run results, checkpoints.

The one serving dispatcher (:class:`~repro.serving.sharded.ShardedScheduler`,
with :class:`~repro.serving.sharded.OnlineScheduler` as its one-shard
preset) returns a :class:`ServingResult`, or a :class:`RunCheckpoint`
when asked to pause mid-stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults import FaultTrace
from repro.metrics.results import InferenceResult
from repro.metrics.serving import RoutingStats, latency_percentiles, slo_attainment
from repro.serving.control import ControlTrace
from repro.sim.trace import BusyRecorder
from repro.workloads.requests import InferenceRequest


@dataclass(frozen=True)
class ServedRequest:
    """One request's serving record: queueing + execution timeline."""

    request: InferenceRequest
    result: InferenceResult
    #: True if the plan this request dispatched with came from a drift
    #: re-co-plan pass rather than the original batch plan (the load
    #: snapshot moved past the bucket the batch assumed).
    replanned: bool = False
    #: Dispatch attempts this request took to complete (1 = first try;
    #: >1 means mid-plan failures forced retry re-admissions).
    attempts: int = 1

    @property
    def arrival_s(self) -> float:
        return self.request.arrival_s

    @property
    def dispatched_s(self) -> float:
        """When the scheduler handed the request to the executor."""
        return self.result.submitted_s

    @property
    def completed_s(self) -> float:
        return self.result.completed_s

    @property
    def queue_s(self) -> float:
        """Admission-queue wait (arrival until dispatch)."""
        return self.dispatched_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency from arrival to merged prediction."""
        return self.completed_s - self.arrival_s


@dataclass
class ServingResult:
    """Everything measured during one serving run."""

    strategy: str
    served: List[ServedRequest] = field(default_factory=list)
    makespan_s: float = 0.0
    energy_j: float = 0.0
    energy_by_device: Dict[str, float] = field(default_factory=dict)
    network_bytes: int = 0
    total_flops: int = 0
    busy: Optional[BusyRecorder] = None
    #: Scheduler counters.
    batches: int = 0
    replans: int = 0
    max_batch_observed: int = 0
    #: Shard counters (a one-shard run never steals; it preempts only
    #: when the stream carries priorities).
    shards: int = 1
    steals: int = 0
    preemptions: int = 0
    #: Physical leader device of each shard's dispatcher (empty only on
    #: results built outside the scheduler).
    leader_devices: Tuple[str, ...] = ()
    #: Per-shard accounting (index = shard).  ``finish()`` checks that
    #: they reconcile exactly --
    #: ``dispatched[i] == admitted[i] + readmitted[i] + stolen_in[i]
    #: - stolen_out[i]`` -- and raises
    #: :class:`~repro.serving.sharded.AccountingError` otherwise.
    admitted_by_shard: Tuple[int, ...] = ()
    dispatched_by_shard: Tuple[int, ...] = ()
    stolen_in_by_shard: Tuple[int, ...] = ()
    stolen_out_by_shard: Tuple[int, ...] = ()
    #: Simulated seconds of planning overhead charged on the scheduler
    #: CPU before dispatch (0 when charging is gated off).
    planning_charged_s: float = 0.0
    #: Fault-injection accounting (all zero on a fault-free run).  The
    #: counters reconcile exactly: ``failures == retries + shed``,
    #: every request completes once XOR is shed
    #: (``count + shed == admitted``), and each retry re-enters through
    #: the dispatcher (``sum(dispatched) == count + shed + retries``).
    failures: int = 0
    retries: int = 0
    shed: int = 0
    downgraded: int = 0
    #: Fault events the injector applied over the run.
    fault_events: int = 0
    #: Per-shard retry re-admissions (``sum == retries``).
    readmitted_by_shard: Tuple[int, ...] = ()
    #: Request ids shed by the retry/degradation policy
    #: (``trace_level="full"`` runs only; empty tuple otherwise).
    shed_requests: Tuple[int, ...] = ()
    #: Failure/recovery trace (None on a fault-free run).
    faults: Optional[FaultTrace] = None
    #: Control-plane accounting (ISSUE 9).  ``rejected`` counts arrivals
    #: the admission door turned away (pressure rejections + deadline
    #: sheds) -- a terminal state distinct from fault ``shed``, so the
    #: fault reconciliation ``failures == retries + shed`` is untouched
    #: and the full ledger reads
    #: ``count + shed + rejected == len(requests)``.  ``control`` is the
    #: controller's decision trace (None when ``control=None``).
    rejected: int = 0
    rejected_requests: Tuple[int, ...] = ()
    control: Optional[ControlTrace] = None
    #: Routing-layer accounting (ISSUE 7).  ``router`` names the
    #: admission policy; ``epochs``/``leader_reelections`` count
    #: specialization-epoch boundaries and the boundaries that moved a
    #: shard leader; ``spilled``/``cold_routed`` count requests the
    #: cost-aware router diverted off their specialist shard and
    #: requests routed with no specialty yet.  ``routing`` carries the
    #: full per-shard/per-epoch log (None only on results built outside
    #: the scheduler).
    router: str = ""
    epochs: int = 0
    spilled: int = 0
    cold_routed: int = 0
    leader_reelections: int = 0
    routing: Optional[RoutingStats] = None
    #: Engine events scheduled over the run.  Schedule-identical
    #: configurations (fast vs reference engine, full vs aggregate
    #: traces) produce exactly the same count, so the engine bench uses
    #: it as its events-per-second numerator and as a cheap schedule
    #: fingerprint.
    sim_events: int = 0

    @property
    def count(self) -> int:
        return len(self.served)

    @property
    def latencies(self) -> List[float]:
        return [record.latency_s for record in self.served]

    @property
    def queue_delays(self) -> List[float]:
        return [record.queue_s for record in self.served]

    @property
    def mean_batch_size(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.count / self.batches

    def percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 end-to-end latency."""
        return latency_percentiles(self.latencies)

    def slo_attainment(self, slo_s: float) -> float:
        """Fraction of requests with end-to-end latency within the SLO.

        Shed and door-rejected requests count as *missed*: the
        denominator is every offered request, so a policy cannot buy
        attainment by dropping the work it would have missed on.
        """
        dropped = self.shed + self.rejected
        if dropped:
            if slo_s <= 0:
                raise ValueError(f"SLO must be positive, got {slo_s}")
            met = sum(1 for latency in self.latencies if latency <= slo_s)
            return met / (self.count + dropped)
        return slo_attainment(self.latencies, slo_s)

    @property
    def span_s(self) -> float:
        """The serving window: first arrival to last completion."""
        if not self.served:
            return 0.0
        return max(r.completed_s for r in self.served) - min(r.arrival_s for r in self.served)

    def throughput_rps(self) -> float:
        """Wall throughput over the serving window.

        Measured from the *first arrival* to the last completion, not
        from t=0: a stream whose first request arrives late would
        otherwise book the idle lead-in against the scheduler and
        deflate the reported rate.
        """
        span = self.span_s
        if span <= 0:
            return 0.0
        return self.count / span

    def steady_state_rps(self) -> float:
        """Completion rate once the pipeline is warm.

        The ``count - 1`` completion intervals between the first and the
        last completion: excludes the fill time of the first request, so
        it converges to the cluster's sustainable service rate on long
        streams.  Falls back to the wall rate for degenerate spans.
        """
        if self.count < 2:
            return self.throughput_rps()
        completions = [record.completed_s for record in self.served]
        span = max(completions) - min(completions)
        if span <= 0:
            return self.throughput_rps()
        return (self.count - 1) / span

    def latencies_by_priority(self) -> Dict[int, List[float]]:
        """End-to-end latencies grouped by request priority class."""
        grouped: Dict[int, List[float]] = {}
        for record in self.served:
            grouped.setdefault(record.request.priority, []).append(record.latency_s)
        return grouped

    def percentiles_by_priority(self) -> Dict[int, Dict[str, float]]:
        """p50/p95/p99 end-to-end latency per priority class."""
        return {
            priority: latency_percentiles(latencies)
            for priority, latencies in sorted(self.latencies_by_priority().items())
        }


class RunCheckpoint:
    """A serving run paused mid-stream, resumable to the exact result.

    Produced by the scheduler's ``run(..., checkpoint_at_s=S)``: the
    event loop pauses once the clock reaches ``S``, the engine state is
    captured (:meth:`SimRuntime.snapshot`), and this handle is returned
    instead of the :class:`ServingResult`.  Calling :meth:`resume`
    validates and rewinds to the captured state, then drains the run to
    completion -- the resumed result is byte-identical to the
    uninterrupted run, because pausing processes the exact same event
    prefix and nothing simulated happens while paused.

    The checkpoint is *in-memory*: pending generator frames (the
    in-flight plan executions) are held live by the captured heap, so
    the handle is valid only within the process that produced it, and
    only until :meth:`resume` is called.  ``segments`` maps each
    request id to how many plan-segment boundaries its execution had
    crossed by the pause -- the consistency cut the executor's
    checkpoint hook records (see ``PlanExecutor.execute``).
    """

    __slots__ = (
        "sim_time",
        "served_count",
        "segments",
        "_runtime",
        "_snapshot",
        "_finish",
    )

    def __init__(self, runtime, snapshot, finish, served_count, segments):
        self.sim_time = snapshot.sim_time
        self.served_count = served_count
        self.segments = segments
        self._runtime = runtime
        self._snapshot = snapshot
        self._finish = finish

    @property
    def pending_events(self) -> int:
        """Heap entries captured at the pause (in-flight schedule)."""
        return self._snapshot.pending_events

    def resume(self) -> "ServingResult":
        """Rewind to the captured state and drain the run to its end."""
        self._runtime.restore(self._snapshot)
        return self._finish()


def _segment_recorder(segments: Dict[int, int], request_id: int, inner=None):
    """Build a ``PlanExecutor`` checkpoint hook counting segment crossings.

    The recorder adds *no* simulation events (it only mutates the
    ``segments`` ledger), so installing it keeps the schedule
    byte-identical; ``inner`` chains a pre-existing hook (the
    scheduler's cooperative-preemption closure) after the count.
    """

    def checkpoint():
        segments[request_id] = segments.get(request_id, 0) + 1
        if inner is not None:
            yield from inner()

    return checkpoint
