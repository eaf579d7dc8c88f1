"""Figure 9 (beyond the paper): online serving under sustained open-loop
load.

The paper stops at fixed-interval streams; this experiment drives the
Fig. 3 middleware -- the serving dispatcher in its single-leader
preset, :class:`~repro.serving.OnlineScheduler` (one shard, no
planning charge, ``min`` load view) -- with seeded stochastic arrival
processes over all four evaluation models and reports serving-quality
numbers: p50/p95/p99 end-to-end latency (measured from *arrival*, so
admission queueing counts) and SLO attainment, plus the scheduler's
co-planning counters.  The streams carry no priorities, so the preset
serves them FIFO.

Expected shape: the Poisson and heavy-tailed streams run in a stable
busy regime (high SLO attainment, single-digit batches); the bursty
stream saturates the cluster during bursts, exercising deep backlogs,
large co-planned batches and drift replanning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.dnn.models import MODEL_NAMES
from repro.metrics.report import render_table
from repro.platform.cluster import Cluster
from repro.serving import OnlineScheduler, ServingResult
from repro.workloads.arrivals import bursty_stream, heavy_tailed_stream, poisson_stream
from repro.workloads.requests import InferenceRequest

#: Requests per stream (>= 100 so the tail percentiles are meaningful).
NUM_REQUESTS = 120
#: Poisson arrival rate: a busy but stable regime for the five-board
#: cluster (HiDP sustains ~3.5 inferences/s on the Fig. 7 mixes).
POISSON_RATE_RPS = 3.0
#: End-to-end latency SLO judged against arrival time.
SLO_S = 1.5
#: Seed for every arrival process (fully deterministic streams).
SEED = 2025

ARRIVAL_PROCESSES = ("poisson", "bursty", "heavy_tailed")


def build_arrivals(
    process: str,
    num_requests: int = NUM_REQUESTS,
    seed: int = SEED,
    models: Sequence[str] = MODEL_NAMES,
) -> List[InferenceRequest]:
    """The seeded request stream of one arrival process."""
    if process == "poisson":
        return poisson_stream(models, rate_rps=POISSON_RATE_RPS, num_requests=num_requests, seed=seed)
    if process == "bursty":
        burst_size = 8
        num_bursts = max(1, (num_requests + burst_size - 1) // burst_size)
        return bursty_stream(
            models, burst_size=burst_size, num_bursts=num_bursts, mean_gap_s=3.0, seed=seed
        )[:num_requests]
    if process == "heavy_tailed":
        return heavy_tailed_stream(
            models, scale_s=0.15, num_requests=num_requests, alpha=1.5, max_gap_s=5.0, seed=seed
        )
    raise KeyError(f"unknown arrival process {process!r}; known: {ARRIVAL_PROCESSES}")


def run_fig9(
    processes: Sequence[str] = ARRIVAL_PROCESSES,
    num_requests: int = NUM_REQUESTS,
    seed: int = SEED,
    cluster: Optional[Cluster] = None,
    max_batch: int = 16,
    max_inflight: int = 4,
) -> Dict[str, ServingResult]:
    """{arrival process: serving result} under the HiDP scheduler."""
    results: Dict[str, ServingResult] = {}
    for process in processes:
        scheduler = OnlineScheduler(
            cluster=cluster, max_batch=max_batch, max_inflight=max_inflight
        )
        results[process] = scheduler.run(build_arrivals(process, num_requests, seed))
    return results


def report_fig9(results: Optional[Dict[str, ServingResult]] = None) -> str:
    if results is None:
        results = run_fig9()
    rows = []
    for process, result in results.items():
        pct = result.percentiles()
        rows.append(
            {
                "Arrivals": process,
                "served": result.count,
                "p50 [ms]": pct["p50"] * 1000.0,
                "p95 [ms]": pct["p95"] * 1000.0,
                "p99 [ms]": pct["p99"] * 1000.0,
                f"SLO<{SLO_S:g}s": f"{100.0 * result.slo_attainment(SLO_S):.0f}%",
                "thr [r/s]": result.throughput_rps(),
                "steady [r/s]": result.steady_state_rps(),
                "batches": result.batches,
                "mean batch": result.mean_batch_size,
                "replans": result.replans,
            }
        )
    return render_table(
        rows,
        title=(
            "Fig. 9 -- online serving under sustained load "
            f"(HiDP scheduler, {NUM_REQUESTS} requests over {len(MODEL_NAMES)} models)"
        ),
        float_format="{:.1f}",
    )
