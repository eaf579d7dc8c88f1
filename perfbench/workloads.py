"""The benchmark's three serving workloads.

Every workload is open loop in simulated time and is served as a list of
independent *episodes*: each episode is one request stream, generated
from a sub-seed of the workload seed and served by its own
``ShardedScheduler.run`` on a fresh cluster.  Pooling many bounded
episodes instead of serving one long stream keeps the simulated tail
statistics comparable across seeds: the heavy and light streams run
close to the cluster's capacity, so a single long stream's p99 is set
by one random queue excursion and swings with the seed.  The pool sizes
trade run time against the seed-to-seed spread of the simulated
metrics, which they keep inside their ``BENCHMARK.json`` bounds.

A workload object owns everything a run needs and nothing global:
``setup()`` builds the inputs (streams, graphs and, for the warm
workload, a warmed strategy) and ``schedulers()`` hands out the
per-episode schedulers of one pass over the pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.dp import clear_result_memos
from repro.core.hidp import HiDPStrategy
from repro.dnn.models import MODEL_NAMES, build_model
from repro.experiments.fig13_control import churn_policy, control_policy
from repro.faults import PerturbationProcess, RetryPolicy
from repro.platform.cluster import build_cluster
from repro.serving import ClusteredRouter, ShardedScheduler
from repro.workloads.arrivals import bursty_stream, poisson_stream
from repro.workloads.requests import InferenceRequest

#: The light model pool of the fig12 skewed stream: model -> draw weight.
LIGHT_SKEW = (("tiny_cnn", 8), ("tiny_residual", 4), ("mobilenet_v2", 2), ("tiny_depthwise", 1))
LIGHT_BURST = 12

#: fig11 ``hostile`` churn rates and the fig11 ``retry`` recovery policy.
CHURN_FAULT_SEED = 7
CHURN_RATES = {"churn_rate": 0.4, "link_rate": 0.15, "dvfs_rate": 0.15}
CHURN_MEAN_OUTAGE_S = 0.8
CHURN_RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.05)


def episode_seeds(seed: int, episodes: int) -> List[int]:
    """Deterministic per-episode stream seeds derived from ``seed``."""
    rng = random.Random(seed)
    return [rng.getrandbits(31) for _ in range(episodes)]


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape (see ``BENCHMARK.json`` for the why)."""

    name: str
    default_seed: int
    episodes: int
    requests_per_episode: int
    #: Episodes a traced run serves: the first ones of the pool, enough
    #: for stable layer shares at a bounded traced wall-clock.
    traced_episodes: int
    slo_s: float
    models: Sequence[str]
    stream: Callable[[int, int], List[InferenceRequest]]
    scheduler: Callable[..., ShardedScheduler]
    #: Warm workloads plan once in set-up and reuse that strategy.
    warm: bool = False
    #: Cold workloads clear the DP result memos before every episode.
    clear_memos: bool = False


def _heavy_stream(num_requests: int, seed: int) -> List[InferenceRequest]:
    return poisson_stream(MODEL_NAMES, rate_rps=4.0, num_requests=num_requests, seed=seed)


def _light_stream(num_requests: int, seed: int) -> List[InferenceRequest]:
    pool = [model for model, weight in LIGHT_SKEW for _ in range(weight)]
    bursts = -(-num_requests // LIGHT_BURST)
    return bursty_stream(
        pool,
        burst_size=LIGHT_BURST,
        num_bursts=bursts,
        mean_gap_s=0.25,
        seed=seed,
        shuffle_models=True,
    )[:num_requests]


def _churn_stream(num_requests: int, seed: int) -> List[InferenceRequest]:
    return poisson_stream(MODEL_NAMES, rate_rps=1.2, num_requests=num_requests, seed=seed)


def _heavy_scheduler(cluster, strategy, requests) -> ShardedScheduler:
    del requests
    return ShardedScheduler(
        cluster=cluster,
        strategy=strategy,
        num_shards=4,
        max_inflight=8,
        planning_overhead="off",
        trace_level="aggregate",
    )


def _light_scheduler(cluster, strategy, requests) -> ShardedScheduler:
    del requests
    return ShardedScheduler(
        cluster=cluster,
        strategy=strategy,
        num_shards=4,
        max_inflight=8,
        router=ClusteredRouter(spill_threshold=1.0),
        epoch_s=2.0,
        leader_policy="epoch",
        planning_overhead="bucket",
        control=replace(control_policy(), slo_s=0.4),
        trace_level="aggregate",
    )


def _churn_scheduler(cluster, strategy, requests) -> ShardedScheduler:
    faults = PerturbationProcess(
        seed=CHURN_FAULT_SEED,
        horizon_s=max(request.arrival_s for request in requests),
        mean_outage_s=CHURN_MEAN_OUTAGE_S,
        **CHURN_RATES,
    )
    return ShardedScheduler(
        cluster=cluster,
        strategy=strategy,
        num_shards=2,
        max_inflight=8,
        faults=faults,
        retry=CHURN_RETRY,
        planning_overhead="bucket",
        control=churn_policy(),
        trace_level="aggregate",
    )


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="heavy_warm",
            default_seed=7,
            episodes=100,
            requests_per_episode=100,
            traced_episodes=30,
            slo_s=1.5,
            models=MODEL_NAMES,
            stream=_heavy_stream,
            scheduler=_heavy_scheduler,
            warm=True,
        ),
        Spec(
            name="light_clustered",
            default_seed=2025,
            episodes=600,
            requests_per_episode=8 * LIGHT_BURST,
            traced_episodes=40,
            slo_s=0.4,
            models=tuple(model for model, _ in LIGHT_SKEW),
            stream=_light_stream,
            scheduler=_light_scheduler,
        ),
        Spec(
            name="churn_cold",
            default_seed=2025,
            episodes=40,
            requests_per_episode=200,
            traced_episodes=6,
            slo_s=4.0,
            models=MODEL_NAMES,
            stream=_churn_stream,
            scheduler=_churn_scheduler,
            clear_memos=True,
        ),
    )
}


class Workload:
    """The inputs of one benchmark invocation, built from a seed.

    ``episodes`` and ``requests_per_episode`` default to the spec's
    shape; traced runs and the harness self-test serve fewer.
    """

    def __init__(
        self,
        spec: Spec,
        seed: int,
        episodes: Optional[int] = None,
        requests_per_episode: Optional[int] = None,
    ):
        self.spec = spec
        self.seed = seed
        self.episodes = episodes if episodes is not None else spec.episodes
        self.requests_per_episode = (
            requests_per_episode
            if requests_per_episode is not None
            else spec.requests_per_episode
        )
        self.streams: List[List[InferenceRequest]] = []
        self.strategy: Optional[HiDPStrategy] = None

    def setup(self) -> None:
        """Generate the streams and build the graphs; a warm workload
        also fills a fresh strategy's plan cache and the DP memos (the
        harness serves that warming pass and checks it).

        Graph construction is timed on fresh graphs each time; the
        memoised graphs the schedulers plan on are built on the first
        call, so no measured pass pays for them.
        """
        spec = self.spec
        self.streams = [
            spec.stream(self.requests_per_episode, sub_seed)
            for sub_seed in episode_seeds(self.seed, self.episodes)
        ]
        for model in spec.models:
            build_model(model, fresh=True).segment_table()
            build_model(model).segment_table()
        self.strategy = None
        if spec.warm:
            clear_result_memos()
            self.strategy = HiDPStrategy()

    def schedulers(self):
        """``(scheduler, stream)`` per episode for one pass.

        A generator, so a cold workload clears the DP memos right before
        the episode it serves, never ahead of time.
        """
        spec = self.spec
        for stream in self.streams:
            if spec.clear_memos:
                clear_result_memos()
            strategy = self.strategy if spec.warm else HiDPStrategy()
            yield spec.scheduler(build_cluster(), strategy, stream), stream
