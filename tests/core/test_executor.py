"""Plan executor tests: timing semantics and FSM traces."""

import pytest

from repro.core.executor import PlanExecutor
from repro.core.fsm import STATE_ANALYZE, STATE_EXECUTE, STATE_EXPLORE, STATE_MAP, STATE_OFFLOAD
from repro.core.plans import (
    ExecutionPlan,
    LOCAL_DATA,
    LOCAL_PIPELINE,
    LOCAL_SINGLE,
    LOCAL_STAGED,
    LocalExec,
    MODE_DATA,
    MODE_LOCAL,
    MODE_MODEL,
    NodeAssignment,
    UnitTask,
)
from repro.platform.cluster import build_cluster
from repro.sim.runtime import SimRuntime
from repro.workloads.requests import InferenceRequest


def _run(plan, cluster=None):
    cluster = cluster or build_cluster(["jetson_tx2", "jetson_orin_nx"])
    runtime = SimRuntime(cluster)
    executor = PlanExecutor(runtime)
    request = InferenceRequest(request_id=0, model=plan.model)
    process = runtime.env.process(executor.execute(request, plan))
    runtime.env.run()
    return process.value, runtime


def _single_plan(device="jetson_tx2", processor="gpu_pascal", flops=10**9, **plan_kwargs):
    task = UnitTask(processor=processor, flops_by_class={"conv": flops})
    return ExecutionPlan(
        strategy="test",
        model="tiny_cnn",
        mode=MODE_LOCAL,
        assignments=(
            NodeAssignment(device=device, local=LocalExec(mode=LOCAL_SINGLE, tasks=(task,))),
        ),
        **plan_kwargs,
    )


class TestLocalMode:
    def test_result_fields(self):
        result, _ = _run(_single_plan())
        assert result.request_id == 0
        assert result.model == "tiny_cnn"
        assert result.plan_mode == MODE_LOCAL
        assert result.latency_s > 0

    def test_latency_includes_compute(self):
        result, runtime = _run(_single_plan(flops=10**10))
        gpu = runtime.cluster.device("jetson_tx2").processor("gpu_pascal")
        assert result.latency_s >= gpu.compute_seconds({"conv": 10**10})

    def test_dse_overhead_charged(self):
        slow = _single_plan(dse_overhead_s=0.5)
        fast = _single_plan(dse_overhead_s=0.0)
        slow_result, _ = _run(slow)
        fast_result, _ = _run(fast)
        assert slow_result.latency_s - fast_result.latency_s == pytest.approx(0.5, abs=0.01)

    def test_leader_fsm_trace_recorded(self):
        result, _ = _run(_single_plan())
        leader_trace = result.traces[0]
        assert leader_trace.role == "leader"
        states = leader_trace.states()
        assert states[0] == STATE_ANALYZE
        assert STATE_EXPLORE in states
        assert STATE_EXECUTE in states
        assert states[-1] == STATE_ANALYZE

    def test_busy_recorded_on_processor(self):
        _, runtime = _run(_single_plan())
        assert runtime.busy.busy_seconds("jetson_tx2/gpu_pascal") > 0


class TestDataMode:
    def _data_plan(self):
        t_local = UnitTask(processor="gpu_pascal", flops_by_class={"conv": 10**9})
        t_remote = UnitTask(processor="gpu_ampere", flops_by_class={"conv": 10**9})
        return ExecutionPlan(
            strategy="test",
            model="tiny_cnn",
            mode=MODE_DATA,
            assignments=(
                NodeAssignment(
                    device="jetson_tx2", local=LocalExec(mode=LOCAL_SINGLE, tasks=(t_local,))
                ),
                NodeAssignment(
                    device="jetson_orin_nx",
                    local=LocalExec(mode=LOCAL_SINGLE, tasks=(t_remote,)),
                    send_bytes=10**6,
                    return_bytes=10**5,
                ),
            ),
            merge_exec=LocalExec(
                mode=LOCAL_SINGLE,
                tasks=(UnitTask(processor="cpu_denver2", flops_by_class={"dense": 10**6}),),
            ),
        )

    def test_parallel_tiles_overlap(self):
        result, runtime = _run(self._data_plan())
        tx2_busy = runtime.busy.busy_seconds("jetson_tx2/gpu_pascal")
        orin_busy = runtime.busy.busy_seconds("jetson_orin_nx/gpu_ampere")
        assert result.latency_s < tx2_busy + orin_busy + 0.5

    def test_network_charged_for_remote_tile(self):
        _, runtime = _run(self._data_plan())
        assert runtime.transfer_log.total_bytes >= 10**6 + 10**5

    def test_follower_trace(self):
        result, _ = _run(self._data_plan())
        followers = [t for t in result.traces if t.role == "follower"]
        assert len(followers) == 1
        assert followers[0].node == "jetson_orin_nx"
        assert STATE_EXECUTE in followers[0].states()

    def test_merge_runs_after_gather(self):
        _, runtime = _run(self._data_plan())
        assert runtime.busy.busy_seconds("jetson_tx2/cpu_denver2") > 0


class TestModelMode:
    def _pipeline_plan(self):
        blocks = [
            ("jetson_tx2", "gpu_pascal", 0, 0),
            ("jetson_orin_nx", "gpu_ampere", 10**6, 10**4),
        ]
        assignments = []
        for device, proc, send, ret in blocks:
            task = UnitTask(processor=proc, flops_by_class={"conv": 10**9})
            assignments.append(
                NodeAssignment(
                    device=device,
                    local=LocalExec(mode=LOCAL_SINGLE, tasks=(task,)),
                    send_bytes=send,
                    return_bytes=ret,
                )
            )
        return ExecutionPlan(
            strategy="test", model="tiny_cnn", mode=MODE_MODEL, assignments=tuple(assignments)
        )

    def test_sequential_stages(self):
        result, runtime = _run(self._pipeline_plan())
        tx2 = runtime.busy.intervals("jetson_tx2/gpu_pascal")
        orin = runtime.busy.intervals("jetson_orin_nx/gpu_ampere")
        assert tx2[-1].end <= orin[0].start  # stage 2 waits for stage 1

    def test_result_returns_to_leader(self):
        _, runtime = _run(self._pipeline_plan())
        tags = [entry.tag for entry in runtime.transfer_log.entries]
        assert "result" in tags


class TestControllerContention:
    """Regressions for the seed's `_busy` bug: the overhead remainder
    was a bare timeout after the station resource was released, so
    concurrent requests overlapped on the capacity-1 scheduler CPU."""

    def _run_concurrent(self, count, dse_overhead_s=0.05):
        cluster = build_cluster(["jetson_tx2", "jetson_orin_nx"])
        runtime = SimRuntime(cluster)
        executor = PlanExecutor(runtime)
        plan = _single_plan(dse_overhead_s=dse_overhead_s)
        for idx in range(count):
            request = InferenceRequest(request_id=idx, model=plan.model)
            runtime.env.process(executor.execute(request, plan))
        runtime.env.run()
        return runtime

    def test_two_concurrent_requests_serialise_on_scheduler_cpu(self):
        runtime = self._run_concurrent(2)
        key = "jetson_tx2/cpu_denver2"  # the leader's scheduler CPU
        assert runtime.busy.overlapping(key) == []
        # the two DSE charges must be back to back, not overlapping
        dse = [iv for iv in runtime.busy.intervals(key) if iv.label == "global_dse"]
        assert len(dse) == 2
        assert dse[1].start >= dse[0].end

    def test_no_overlap_invariant_under_concurrency(self):
        runtime = self._run_concurrent(4)
        runtime.busy.assert_no_overlaps()

    def test_overhead_shorter_than_setup_not_inflated(self):
        """The seed charged at least the CPU's setup time for any
        overhead; a 0.2 ms merge on a 1 ms-setup CPU must record 0.2 ms."""
        cluster = build_cluster(["jetson_tx2", "jetson_orin_nx"])
        runtime = SimRuntime(cluster)
        executor = PlanExecutor(runtime)
        station = runtime.station("jetson_tx2", "cpu_denver2")
        overhead = station.processor.setup_time_s / 5

        def proc():
            yield from executor._busy("jetson_tx2", overhead, "tiny")

        runtime.env.process(proc())
        runtime.env.run()
        assert runtime.busy.busy_seconds(station.key) == pytest.approx(overhead)

    def test_overhead_counts_into_backlog(self):
        cluster = build_cluster(["jetson_tx2", "jetson_orin_nx"])
        runtime = SimRuntime(cluster)
        executor = PlanExecutor(runtime)

        def proc():
            yield from executor._busy("jetson_tx2", 0.5, "global_dse")

        runtime.env.process(proc())
        runtime.env.run(until=0.01)
        station = runtime.station("jetson_tx2", "cpu_denver2")
        assert station.backlog_seconds == pytest.approx(0.49)

    @pytest.mark.parametrize(
        "seconds",
        [
            float("nan"),
            float("inf"),
            pytest.param(float("-inf"), id="-inf"),
            pytest.param(-0.5, id="negative"),
        ],
    )
    def test_charge_overhead_rejects_non_finite_seconds(self, seconds):
        # Negative seconds are rejected too: they would charge nothing.
        cluster = build_cluster(["jetson_tx2", "jetson_orin_nx"])
        runtime = SimRuntime(cluster)
        executor = PlanExecutor(runtime)
        with pytest.raises(ValueError, match="finite and >= 0"):
            executor.charge_overhead("jetson_tx2", seconds, "batch_dse")
        station = runtime.station("jetson_tx2", "cpu_denver2")
        assert station.committed_until == 0.0

    def test_charge_overhead_rejects_unknown_device(self):
        cluster = build_cluster(["jetson_tx2", "jetson_orin_nx"])
        executor = PlanExecutor(SimRuntime(cluster))
        with pytest.raises(KeyError, match=f"'jetson_nano'.*'{cluster.name}'"):
            executor.charge_overhead("jetson_nano", 0.5, "batch_dse")
        # A zero charge still names the device rather than passing.
        with pytest.raises(KeyError, match="jetson_nano"):
            executor.charge_overhead("jetson_nano", 0.0, "batch_dse")


class TestLocalExecModes:
    def _wrap(self, local):
        return ExecutionPlan(
            strategy="test",
            model="tiny_cnn",
            mode=MODE_LOCAL,
            assignments=(NodeAssignment(device="jetson_tx2", local=local),),
        )

    def test_local_data_parallel(self):
        tasks = (
            UnitTask(processor="gpu_pascal", flops_by_class={"conv": 10**9}),
            UnitTask(processor="cpu_denver2", flops_by_class={"conv": 10**8}),
        )
        result, runtime = _run(self._wrap(LocalExec(mode=LOCAL_DATA, tasks=tasks)))
        gpu_time = runtime.busy.busy_seconds("jetson_tx2/gpu_pascal")
        assert result.latency_s < gpu_time + 0.2

    def test_local_pipeline_sequential(self):
        tasks = (
            UnitTask(processor="gpu_pascal", flops_by_class={"conv": 10**9}),
            UnitTask(processor="cpu_denver2", flops_by_class={"conv": 10**8}),
        )
        _, runtime = _run(self._wrap(LocalExec(mode=LOCAL_PIPELINE, tasks=tasks)))
        gpu = runtime.busy.intervals("jetson_tx2/gpu_pascal")
        # the scheduler CPU also records dse/merge charges; look at the
        # pipeline's own (unlabelled) task intervals only
        cpu = [
            iv
            for iv in runtime.busy.intervals("jetson_tx2/cpu_denver2")
            if iv.label not in ("local_dse", "merge", "global_dse")
        ]
        assert gpu[0].end <= cpu[0].start

    def test_local_staged_barriers(self):
        a1 = UnitTask(processor="gpu_pascal", flops_by_class={"conv": 10**9}, label="s0")
        a2 = UnitTask(processor="cpu_denver2", flops_by_class={"conv": 10**8}, label="s0")
        b1 = UnitTask(processor="gpu_pascal", flops_by_class={"conv": 10**9}, label="s1")
        local = LocalExec(mode=LOCAL_STAGED, tasks=(a1, a2, b1), stages=((a1, a2), (b1,)))
        _, runtime = _run(self._wrap(local))
        gpu = runtime.busy.intervals("jetson_tx2/gpu_pascal")
        cpu = runtime.busy.intervals("jetson_tx2/cpu_denver2")
        # stage barrier: second gpu task starts only after the slower of
        # the stage-0 tasks finished
        assert gpu[1].start >= cpu[0].end - 1e-9
