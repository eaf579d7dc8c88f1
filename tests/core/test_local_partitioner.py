"""Local partitioner (HiDP tier 2) tests."""

import pytest

from repro.core.local_partitioner import LocalPartitioner, processor_executor_models
from repro.core.plans import LOCAL_DATA, LOCAL_PIPELINE, LOCAL_SINGLE, LOCAL_STAGED
from repro.dnn.models import build_model


@pytest.fixture()
def partitioner(tx2):
    return LocalPartitioner(tx2)


class TestExecutorModels:
    def test_one_model_per_processor(self, tx2):
        models = processor_executor_models(tx2)
        assert [m.ident for m in models] == ["cpu_denver2", "cpu_a57", "gpu_pascal"]

    def test_rates_match_processors(self, tx2):
        models = processor_executor_models(tx2)
        for model, proc in zip(models, tx2.processors):
            assert model.rates["conv"] == pytest.approx(proc.rate("conv"))
            assert model.dispatch_s == proc.dispatch_time_s

    def test_comm_is_memory_fabric(self, tx2):
        for model in processor_executor_models(tx2):
            assert model.comm_bytes_s == tx2.intra_bw_bytes_s


class TestPlanPiece:
    def test_full_graph_uses_multiple_processors(self, partitioner):
        graph = build_model("efficientnet_b0")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, len(segments) - 1))
        assert decision.mode in (LOCAL_STAGED, LOCAL_DATA, LOCAL_PIPELINE)
        assert len(set(decision.execution.processors)) >= 2

    def test_staged_beats_single(self, partitioner, tx2):
        graph = build_model("efficientnet_b0")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, len(segments) - 1))
        single = tx2.default_processor.task_seconds(
            graph.flops_by_class(), num_ops=graph.num_layers
        )
        assert decision.predicted_s < single

    def test_staged_covers_all_flops(self, partitioner):
        graph = build_model("efficientnet_b0")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, len(segments) - 1))
        if decision.mode == LOCAL_STAGED:
            total = sum(task.flops for task in decision.execution.tasks)
            assert total == pytest.approx(graph.total_flops, rel=0.02)

    def test_tiny_piece_stays_single(self, partitioner, tiny_cnn):
        segments = tiny_cnn.segments()
        last = len(segments) - 1
        decision = partitioner.plan_piece(tiny_cnn, (last, last))
        assert decision.mode == LOCAL_SINGLE

    def test_banded_piece(self, partitioner):
        graph = build_model("vgg19")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, 3), band=(0, 112))
        assert decision.predicted_s > 0
        # banded pieces never produce pipelines
        assert decision.mode in (LOCAL_SINGLE, LOCAL_DATA)

    def test_band_scales_work(self, partitioner):
        graph = build_model("vgg19")
        full = partitioner.plan_piece(graph, (0, 3))
        half = partitioner.plan_piece(graph, (0, 3), band=(0, 112))
        assert half.predicted_s < full.predicted_s

    def test_disable_data_and_pipeline(self, tx2):
        partitioner = LocalPartitioner(tx2, enable_data=False, enable_pipeline=False)
        graph = build_model("efficientnet_b0")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, len(segments) - 1))
        assert decision.mode == LOCAL_SINGLE

    def test_processor_subset(self, tx2):
        partitioner = LocalPartitioner(tx2, processors=["gpu_pascal"])
        graph = build_model("efficientnet_b0")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, len(segments) - 1))
        assert set(decision.execution.processors) == {"gpu_pascal"}

    @pytest.mark.parametrize("quanta", [0, -3])
    def test_quanta_below_one_rejected(self, tx2, quanta):
        with pytest.raises(ValueError, match="quanta"):
            LocalPartitioner(tx2, quanta=quanta)

    def test_single_processor_device(self):
        from repro.platform.device import Device
        from repro.platform.power import PowerModel
        from repro.platform.processor import ComputeIntensity, KIND_CPU, Processor

        solo = Device(
            name="solo",
            processors=(
                Processor(
                    name="cpu",
                    kind=KIND_CPU,
                    cores=4,
                    frequency_hz=2e9,
                    intensity=ComputeIntensity.scaled(1.0, {}),
                    power=PowerModel(0.1, 2.0),
                ),
            ),
            intra_bw_bytes_s=1e9,
        )
        partitioner = LocalPartitioner(solo)
        graph = build_model("tiny_cnn")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, len(segments) - 1))
        assert decision.mode == LOCAL_SINGLE


class TestStagedStructure:
    def test_stage_tasks_use_distinct_processors(self, partitioner):
        graph = build_model("resnet152")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, len(segments) - 1))
        if decision.mode == LOCAL_STAGED:
            for stage in decision.execution.stages:
                procs = [task.processor for task in stage]
                assert len(set(procs)) == len(procs)

    def test_max_stages_respected(self, tx2):
        partitioner = LocalPartitioner(tx2, max_stages=2)
        graph = build_model("resnet152")
        segments = graph.segments()
        decision = partitioner.plan_piece(graph, (0, len(segments) - 1))
        if decision.mode == LOCAL_STAGED:
            # 2 split stages + at most one remainder stage
            assert len(decision.execution.stages) <= 3
