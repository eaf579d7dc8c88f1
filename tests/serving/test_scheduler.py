"""Online scheduler tests: admission, batching, backpressure, drift
replanning, priorities, determinism."""

import pytest
from fifo_oracle import assert_matches_oracle, run_fifo_oracle

from repro.baselines.modnn import MoDNNStrategy
from repro.core.hidp import HiDPStrategy
from repro.dnn.models import MODEL_NAMES
from repro.platform.cluster import build_cluster
from repro.serving import OnlineScheduler
from repro.workloads.arrivals import bursty_stream, poisson_stream
from repro.workloads.requests import InferenceRequest, request_sequence, single_request


def _small_cluster():
    return build_cluster(["jetson_tx2", "jetson_orin_nx", "jetson_nano"])


class TestBasics:
    def test_single_request(self):
        result = OnlineScheduler(cluster=_small_cluster()).run(single_request("tiny_cnn"))
        assert result.count == 1
        record = result.served[0]
        assert record.arrival_s == 0.0
        assert record.latency_s > 0
        assert record.queue_s >= 0
        assert result.batches == 1
        assert not record.replanned

    def test_all_requests_complete_in_id_order(self):
        requests = request_sequence([MODEL_NAMES[0]] * 6, interval_s=0.1)
        result = OnlineScheduler(cluster=_small_cluster()).run(requests)
        assert result.count == 6
        assert [record.request.request_id for record in result.served] == list(range(6))

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            OnlineScheduler(cluster=_small_cluster()).run([])

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            OnlineScheduler(max_batch=0)
        with pytest.raises(ValueError):
            OnlineScheduler(max_inflight=0)

    def test_latency_includes_queueing(self):
        """A simultaneous burst must show growing end-to-end latency:
        later requests wait in the admission queue and that wait counts."""
        requests = [
            InferenceRequest(request_id=idx, model="tiny_cnn", arrival_s=0.0)
            for idx in range(5)
        ]
        result = OnlineScheduler(cluster=_small_cluster(), max_inflight=1).run(requests)
        latencies = result.latencies
        assert latencies == sorted(latencies)
        assert latencies[-1] > latencies[0]
        assert max(result.queue_delays) > 0

    def test_no_overlap_invariant(self):
        requests = poisson_stream(("tiny_cnn", "tiny_residual"), 5.0, 20, seed=3)
        result = OnlineScheduler(cluster=_small_cluster()).run(requests)
        assert result.count == 20
        result.busy.assert_no_overlaps()


class TestBatching:
    def test_burst_forms_batches(self):
        requests = bursty_stream(
            ("tiny_cnn",), burst_size=6, num_bursts=2, mean_gap_s=5.0, seed=1
        )
        result = OnlineScheduler(cluster=_small_cluster(), max_batch=8).run(requests)
        assert result.count == 12
        assert result.max_batch_observed > 1
        assert result.batches < 12

    def test_max_batch_respected(self):
        requests = [
            InferenceRequest(request_id=idx, model="tiny_cnn", arrival_s=0.0)
            for idx in range(9)
        ]
        result = OnlineScheduler(cluster=_small_cluster(), max_batch=3).run(requests)
        assert result.max_batch_observed <= 3
        assert result.batches >= 3

    def test_backpressure_bounds_inflight(self):
        """With one in-flight slot the executions must be disjoint in
        time (each dispatch waits for the previous completion)."""
        requests = [
            InferenceRequest(request_id=idx, model="tiny_cnn", arrival_s=0.0)
            for idx in range(4)
        ]
        result = OnlineScheduler(cluster=_small_cluster(), max_inflight=1).run(requests)
        dispatches = sorted(
            (record.dispatched_s, record.completed_s) for record in result.served
        )
        for (_, prev_done), (next_start, _) in zip(dispatches, dispatches[1:]):
            assert next_start >= prev_done - 1e-9


class TestReplanning:
    @staticmethod
    def _single_proc_cluster():
        """Two boards stripped to one CPU each: the device backlog then
        reflects every in-flight request, so the snapshot reliably
        drifts across load buckets while requests wait for a slot."""
        import dataclasses

        from repro.platform.cluster import Cluster
        from repro.platform.processor import KIND_CPU
        from repro.platform.specs import build_device

        devices = []
        for name in ("jetson_tx2", "jetson_orin_nx"):
            device = build_device(name)
            cpu = next(proc for proc in device.processors if proc.kind == KIND_CPU)
            devices.append(dataclasses.replace(device, processors=(cpu,)))
        return Cluster(devices=tuple(devices))

    def test_drift_triggers_replans(self):
        """A simultaneous burst through a narrow in-flight window: by
        the time late requests dispatch, the backlog snapshot has moved
        past the bucket their batch plan assumed.

        Regression (ISSUE 3): one drift used to leave ``batch_bucket``
        stale, so every remaining request replanned individually (2
        replans here).  The fixed dispatcher re-co-plans the whole
        remaining tail in one pass and adopts the fresh bucket: a
        single replanning pass now covers both tail requests."""
        requests = [
            InferenceRequest(request_id=idx, model="resnet152", arrival_s=0.0)
            for idx in range(4)
        ]
        result = OnlineScheduler(
            cluster=self._single_proc_cluster(), max_batch=16, max_inflight=2
        ).run(requests)
        assert result.count == 4
        assert result.replans == 1
        assert [record.replanned for record in result.served] == [False, False, True, True]
        result.busy.assert_no_overlaps()
        oracle = run_fifo_oracle(self._single_proc_cluster(), requests, max_inflight=2)
        assert_matches_oracle(result, oracle)

    def test_load_unaware_strategy_never_replans(self):
        requests = [
            InferenceRequest(request_id=idx, model="tiny_cnn", arrival_s=0.0)
            for idx in range(6)
        ]
        result = OnlineScheduler(
            cluster=_small_cluster(), strategy=MoDNNStrategy(), max_inflight=2
        ).run(requests)
        assert result.count == 6
        assert result.replans == 0


class TestPriorities:
    def test_late_urgent_request_overtakes_queued_work(self):
        """The one-shard preset honours priorities: an urgent request
        arriving behind a backlog of normal work preempts the normal
        slot holder at a plan-segment boundary and finishes first.  The
        FIFO single-leader loop serves it last."""
        requests = [
            InferenceRequest(request_id=idx, model="resnet152", arrival_s=0.0, priority=1)
            for idx in range(4)
        ]
        requests.append(
            InferenceRequest(request_id=4, model="tiny_cnn", arrival_s=0.05, priority=0)
        )
        result = OnlineScheduler(cluster=_small_cluster(), max_inflight=1).run(requests)
        done = {record.request.request_id: record.completed_s for record in result.served}
        assert result.preemptions == 1
        assert done[4] < done[3]
        fifo = run_fifo_oracle(_small_cluster(), requests, max_inflight=1)
        fifo_done = {record.request.request_id: record.completed_s for record in fifo.served}
        assert max(fifo_done, key=fifo_done.get) == 4


class TestThroughputAccounting:
    """Regression (ISSUE 3): throughput used to divide by the makespan
    measured from t=0, so idle lead-in before the first arrival
    deflated the reported rate."""

    def test_idle_lead_in_does_not_deflate_throughput(self):
        requests = [
            InferenceRequest(request_id=idx, model="tiny_cnn", arrival_s=10.0 + 0.05 * idx)
            for idx in range(4)
        ]
        result = OnlineScheduler(cluster=_small_cluster()).run(requests)
        # The serving window starts at the first arrival (t=10), not t=0.
        assert result.makespan_s > 10.0
        assert result.span_s < result.makespan_s - 9.0
        assert result.throughput_rps() == pytest.approx(result.count / result.span_s)
        # The old accounting (count / makespan-from-0) was well below that.
        assert result.throughput_rps() > 2.0 * (result.count / result.makespan_s)

    def test_steady_state_rate_excludes_fill_time(self):
        requests = request_sequence(["tiny_cnn"] * 8, interval_s=0.05)
        result = OnlineScheduler(cluster=_small_cluster()).run(requests)
        completions = sorted(record.completed_s for record in result.served)
        expected = (result.count - 1) / (completions[-1] - completions[0])
        assert result.steady_state_rps() == pytest.approx(expected)

    def test_single_request_rates_degenerate_gracefully(self):
        result = OnlineScheduler(cluster=_small_cluster()).run(single_request("tiny_cnn"))
        assert result.throughput_rps() > 0
        assert result.steady_state_rps() == result.throughput_rps()


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def once():
            requests = poisson_stream(MODEL_NAMES[:2], 4.0, 15, seed=42)
            scheduler = OnlineScheduler(cluster=_small_cluster(), strategy=HiDPStrategy())
            result = scheduler.run(requests)
            return [
                (record.request.request_id, record.dispatched_s, record.completed_s)
                for record in result.served
            ]

        assert once() == once()

    def test_metrics_consistent(self):
        requests = poisson_stream(("tiny_cnn", "tiny_residual"), 5.0, 12, seed=9)
        result = OnlineScheduler(cluster=_small_cluster()).run(requests)
        pct = result.percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        assert 0.0 <= result.slo_attainment(1.0) <= 1.0
        assert result.slo_attainment(1e9) == 1.0
        assert result.throughput_rps() > 0
        assert result.mean_batch_size >= 1.0
        assert result.energy_j > 0
