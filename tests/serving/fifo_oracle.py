"""An independent executable spec for the one-shard serving preset.

A fault-free, control-free, FIFO single-leader dispatcher built only
from engine primitives (``SimRuntime``, ``PlanExecutor``, ``Store``, a
plain ``Resource`` window, ``Strategy.plan_batch``).  It shares no code
with :class:`~repro.serving.sharded.ShardedScheduler`, so the pins that
``OnlineScheduler`` reproduces its schedule on priority-free streams
compare the dispatcher against a spec, not against itself.

Loop: arrivals join one queue; the dispatcher drains up to
``max_batch`` into a batch and co-plans it in one pass; each request
waits for one of ``max_inflight`` slots, and if the quantised load
snapshot drifted past the batch's bucket meanwhile, the remaining tail
is re-co-planned in one pass and the fresh bucket becomes the batch's
reference; a child process executes the plan and frees the slot.
"""

from repro.core.executor import PlanExecutor
from repro.core.hidp import HiDPStrategy
from repro.dnn.models import build_model
from repro.metrics.energy import cluster_energy_j
from repro.serving import ServedRequest, ServingResult
from repro.sim.resources import Resource, Store
from repro.sim.runtime import SimRuntime


def run_fifo_oracle(cluster, requests, strategy=None, max_batch=16, max_inflight=4):
    """Serve ``requests`` FIFO through one leader; returns the result."""
    strategy = strategy if strategy is not None else HiDPStrategy()
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    runtime = SimRuntime(cluster)
    executor = PlanExecutor(runtime)
    env = runtime.env
    queue = Store(env)
    inflight = Resource(env, capacity=max_inflight)
    served = []
    counters = {"batches": 0, "replans": 0, "max_batch": 0}

    def bucket_of(load):
        effective = strategy.effective_load(load)
        return None if effective is None else strategy.load_key(effective)

    def source():
        for request in ordered:
            if request.arrival_s > env.now:
                yield env.timeout(request.arrival_s - env.now)
            queue.put(request)

    def serve(request, plan, slot, replanned):
        try:
            result = yield from executor.execute(request, plan)
            served.append(
                ServedRequest(request=request, result=result, replanned=replanned)
            )
        finally:
            inflight.release(slot)

    def dispatcher():
        # Parks on the empty queue once the stream drains (a parked
        # getter does not keep the simulation alive).
        while True:
            batch = [(yield queue.get())]
            while queue.size > 0 and len(batch) < max_batch:
                batch.append((yield queue.get()))
            counters["batches"] += 1
            counters["max_batch"] = max(counters["max_batch"], len(batch))
            load = runtime.load_snapshot()
            batch_bucket = bucket_of(load)
            graphs = [build_model(request.model) for request in batch]
            plans = strategy.plan_batch(graphs, cluster, load=load)
            replanned = [False] * len(batch)
            for index, request in enumerate(batch):
                slot = inflight.request()
                yield slot
                current = runtime.load_snapshot()
                current_bucket = bucket_of(current)
                if current_bucket != batch_bucket:
                    plans[index:] = strategy.plan_batch(
                        graphs[index:], cluster, load=current
                    )
                    replanned[index:] = [True] * (len(batch) - index)
                    batch_bucket = current_bucket
                    counters["replans"] += 1
                env.process(serve(request, plans[index], slot, replanned[index]))

    env.process(source())
    env.process(dispatcher())
    env.run()
    assert len(served) == len(ordered), "oracle left requests unserved"
    served.sort(key=lambda record: record.request.request_id)
    makespan = max(record.completed_s for record in served)
    energy_by_device = cluster_energy_j(cluster, runtime.busy, (0.0, makespan))
    return ServingResult(
        strategy=strategy.name,
        served=served,
        makespan_s=makespan,
        energy_j=sum(energy_by_device.values()),
        energy_by_device=energy_by_device,
        network_bytes=runtime.transfer_log.total_bytes,
        total_flops=runtime.flops_log.total_flops,
        busy=runtime.busy,
        batches=counters["batches"],
        replans=counters["replans"],
        max_batch_observed=counters["max_batch"],
        sim_events=env.scheduled_events,
    )


def assert_matches_oracle(result, oracle):
    """Assert ``result`` reproduces the oracle run's schedule exactly."""

    def timeline(run):
        return [
            (record.request.request_id, record.dispatched_s, record.completed_s, record.replanned)
            for record in run.served
        ]

    assert timeline(result) == timeline(oracle)
    assert result.batches == oracle.batches
    assert result.replans == oracle.replans
    assert result.max_batch_observed == oracle.max_batch_observed
    assert result.makespan_s == oracle.makespan_s
    assert result.energy_j == oracle.energy_j
    assert result.network_bytes == oracle.network_bytes
    assert result.total_flops == oracle.total_flops
    assert result.sim_events == oracle.sim_events
