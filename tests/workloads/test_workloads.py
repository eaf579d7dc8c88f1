"""Workload generator tests."""

import pytest

from repro.dnn.models import MODEL_NAMES
from repro.workloads.mixes import MIXES, MIX_NAMES, mix_requests
from repro.workloads.requests import (
    InferenceRequest,
    repeating_stream,
    request_sequence,
    single_request,
)
from repro.workloads.streaming import FIG6_INTERVAL_S, progressive_workload


class TestRequests:
    def test_single(self):
        reqs = single_request("vgg19")
        assert len(reqs) == 1
        assert reqs[0].arrival_s == 0.0

    def test_sequence_spacing(self):
        reqs = request_sequence(["a", "b", "c"], 0.5)
        assert [r.arrival_s for r in reqs] == [0.0, 0.5, 1.0]
        assert [r.request_id for r in reqs] == [0, 1, 2]

    def test_repeating_stream(self):
        reqs = repeating_stream(["a", "b"], 0.5, 2.0)
        assert len(reqs) == 4
        assert [r.model for r in reqs] == ["a", "b", "a", "b"]

    def test_stream_needs_positive_interval(self):
        with pytest.raises(ValueError):
            repeating_stream(["a"], 0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceRequest(0, "m", -1.0)
        with pytest.raises(ValueError):
            InferenceRequest(-1, "m", 0.0)
        with pytest.raises(ValueError):
            InferenceRequest(0, "m", 0.0, priority=-1)

    def test_nan_arrival_rejected(self):
        # NaN passes ``< 0`` and would turn every latency percentile NaN.
        with pytest.raises(ValueError, match="non-finite arrival"):
            InferenceRequest(0, "m", float("nan"))

    def test_infinite_arrival_rejected(self):
        # An infinite arrival would crash the scheduler's source process.
        with pytest.raises(ValueError, match="non-finite arrival"):
            InferenceRequest(0, "m", float("inf"))

    def test_priority_defaults_to_normal(self):
        request = InferenceRequest(0, "m", 0.0)
        assert request.priority == 0
        urgent = InferenceRequest(1, "m", 0.0, priority=0)
        background = InferenceRequest(2, "m", 0.0, priority=3)
        assert urgent.priority < background.priority


class TestMixes:
    def test_eight_mixes(self):
        assert len(MIX_NAMES) == 8

    def test_mix_sizes(self):
        """Mix 1-4 pair two models, Mix 5-8 three (paper Sec. IV-B)."""
        for idx, name in enumerate(MIX_NAMES):
            expected = 2 if idx < 4 else 3
            assert len(MIXES[name]) == expected

    def test_mixes_use_target_workloads(self):
        for models in MIXES.values():
            for model in models:
                assert model in MODEL_NAMES

    def test_mix_requests_round_robin(self):
        reqs = mix_requests("mix1", interval_s=0.5, duration_s=2.0)
        assert [r.model for r in reqs[:2]] == list(MIXES["mix1"])

    def test_unknown_mix(self):
        with pytest.raises(KeyError):
            mix_requests("mix9")


class TestProgressive:
    def test_staircase(self):
        reqs = progressive_workload()
        assert len(reqs) == 4
        assert [r.model for r in reqs] == list(MODEL_NAMES)
        assert reqs[3].arrival_s == pytest.approx(3 * FIG6_INTERVAL_S)
