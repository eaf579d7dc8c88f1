"""Plan data-model validation tests."""

import pytest

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


def _task(proc="gpu", flops=100, **kwargs):
    return UnitTask(processor=proc, flops_by_class={"conv": flops}, **kwargs)


class TestUnitTask:
    def test_flops_property(self):
        task = UnitTask(processor="gpu", flops_by_class={"conv": 5, "pool": 3})
        assert task.flops == 8

    def test_defaults(self):
        task = _task()
        assert task.pinned is True
        assert task.num_ops == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            _task(input_bytes=-1)

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            UnitTask(processor="gpu", flops_by_class={"conv": -5})


class TestLocalExec:
    def test_single(self):
        ex = LocalExec(mode=LOCAL_SINGLE, tasks=(_task(),))
        assert ex.flops == 100
        assert ex.processors == ("gpu",)

    def test_single_needs_one_task(self):
        with pytest.raises(ValueError):
            LocalExec(mode=LOCAL_SINGLE, tasks=(_task(), _task(proc="cpu")))

    def test_data_distinct_processors(self):
        with pytest.raises(ValueError):
            LocalExec(mode=LOCAL_DATA, tasks=(_task(), _task()))

    def test_data_with_tail(self):
        ex = LocalExec(
            mode=LOCAL_DATA,
            tasks=(_task("gpu"), _task("cpu")),
            tail=_task("gpu", flops=10),
        )
        assert ex.flops == 210

    def test_pipeline_rejects_tail(self):
        with pytest.raises(ValueError):
            LocalExec(mode=LOCAL_PIPELINE, tasks=(_task(),), tail=_task())

    def test_staged_requires_stages(self):
        with pytest.raises(ValueError):
            LocalExec(mode=LOCAL_STAGED, tasks=(_task(),))

    def test_staged_flattening_checked(self):
        a, b = _task("gpu"), _task("cpu")
        ex = LocalExec(mode=LOCAL_STAGED, tasks=(a, b), stages=((a,), (b,)))
        assert ex.flops == 200
        with pytest.raises(ValueError):
            LocalExec(mode=LOCAL_STAGED, tasks=(b, a), stages=((a,), (b,)))

    def test_staged_stage_processor_uniqueness(self):
        a, b = _task("gpu"), _task("gpu")
        with pytest.raises(ValueError):
            LocalExec(mode=LOCAL_STAGED, tasks=(a, b), stages=((a, b),))

    def test_stages_only_in_staged_mode(self):
        a = _task()
        with pytest.raises(ValueError):
            LocalExec(mode=LOCAL_SINGLE, tasks=(a,), stages=((a,),))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            LocalExec(mode="quantum", tasks=(_task(),))

    def test_empty_tasks(self):
        with pytest.raises(ValueError):
            LocalExec(mode=LOCAL_SINGLE, tasks=())


class TestExecutionPlan:
    def _assignment(self, device="jetson_tx2", **kwargs):
        return NodeAssignment(
            device=device, local=LocalExec(mode=LOCAL_SINGLE, tasks=(_task(),)), **kwargs
        )

    def test_basic(self):
        plan = ExecutionPlan(
            strategy="s",
            model="m",
            mode=MODE_LOCAL,
            assignments=(self._assignment(),),
        )
        assert plan.devices == ("jetson_tx2",)
        assert plan.total_flops == 100

    def test_network_bytes(self):
        plan = ExecutionPlan(
            strategy="s",
            model="m",
            mode=MODE_DATA,
            assignments=(
                self._assignment(),
                self._assignment("jetson_nano", send_bytes=10, return_bytes=5),
            ),
        )
        assert plan.network_bytes == 15

    def test_merge_exec_counts(self):
        plan = ExecutionPlan(
            strategy="s",
            model="m",
            mode=MODE_DATA,
            assignments=(self._assignment(), self._assignment("jetson_nano")),
            merge_exec=LocalExec(mode=LOCAL_SINGLE, tasks=(_task(flops=50),)),
        )
        assert plan.total_flops == 250

    def test_local_mode_single_assignment(self):
        with pytest.raises(ValueError):
            ExecutionPlan(
                strategy="s",
                model="m",
                mode=MODE_LOCAL,
                assignments=(self._assignment(), self._assignment("jetson_nano")),
            )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ExecutionPlan(strategy="s", model="m", mode="cloud", assignments=(self._assignment(),))

    def test_empty_assignments(self):
        with pytest.raises(ValueError):
            ExecutionPlan(strategy="s", model="m", mode=MODE_MODEL, assignments=())

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            self._assignment(send_bytes=-1)

    @pytest.mark.parametrize("field", ["dse_overhead_s", "predicted_latency_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_seconds_rejected(self, field, value):
        # nan < 0 is false, so a bare sign check lets NaN through to the
        # executor, where it surfaces as a non-finite engine timeout.
        with pytest.raises(ValueError, match=field):
            ExecutionPlan(
                strategy="s",
                model="m",
                mode=MODE_LOCAL,
                assignments=(self._assignment(),),
                **{field: value},
            )
