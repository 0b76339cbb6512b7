"""Deployment-advisor and sensitivity-analysis tests."""

import pytest

from repro.analysis.sensitivity import (
    all_sensitivities,
    pcie_efficiency_sensitivity,
    stream_efficiency_sensitivity,
    zigzag_slope_sensitivity,
)
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.models.registry import get_model
from repro.optim.advisor import DeploymentAdvisor


class TestAdvisor:
    @pytest.fixture(scope="class")
    def advisor(self):
        return DeploymentAdvisor()

    def test_small_model_low_latency_routes_to_gpu(self, advisor):
        recommendation = advisor.recommend(
            get_model("opt-13b"), InferenceRequest(batch_size=1), "ttft_s")
        assert "H100" in recommendation.best.platform

    def test_oversize_model_routes_to_cpu(self, advisor):
        recommendation = advisor.recommend(
            get_model("opt-66b"), InferenceRequest(batch_size=1),
            "e2e_throughput")
        assert "SPR" in recommendation.best.platform

    def test_ranked_is_sorted(self, advisor):
        recommendation = advisor.recommend(
            get_model("opt-13b"), InferenceRequest(batch_size=1), "e2e_s")
        values = [c.metric_value for c in recommendation.ranked]
        assert values == sorted(values)

    def test_throughput_sorts_descending(self, advisor):
        recommendation = advisor.recommend(
            get_model("opt-13b"), InferenceRequest(batch_size=8),
            "e2e_throughput")
        values = [c.metric_value for c in recommendation.ranked]
        assert values == sorted(values, reverse=True)

    def test_quantization_candidate_present(self, advisor):
        recommendation = advisor.recommend(
            get_model("opt-66b"), InferenceRequest(batch_size=1),
            "e2e_throughput")
        labels = [c.label for c in recommendation.ranked]
        assert any("int8" in label for label in labels)

    def test_tp_candidate_present(self, advisor):
        recommendation = advisor.recommend(
            get_model("llama2-13b"), InferenceRequest(batch_size=1),
            "tpot_s")
        labels = [c.label for c in recommendation.ranked]
        assert any("tp2" in label for label in labels)

    def test_invalid_metric_rejected(self, advisor):
        with pytest.raises(ValueError):
            advisor.recommend(get_model("opt-13b"),
                              InferenceRequest(), "latency")

    def test_candidate_summaries_complete(self, advisor):
        recommendation = advisor.recommend(
            get_model("opt-13b"), InferenceRequest(batch_size=1), "e2e_s")
        for candidate in recommendation.ranked:
            assert set(candidate.summary) >= {"ttft_s", "tpot_s", "e2e_s"}

    def test_only_capacity_errors_drop_a_candidate(self, monkeypatch):
        # A candidate that does not fit is skipped; any other error is a
        # bug and must surface instead of silently shrinking the field.
        def broken(self, model, request, **kwargs):
            raise ZeroDivisionError("pricing bug")

        monkeypatch.setattr(InferenceSimulator, "run", broken)
        advisor = DeploymentAdvisor()
        with pytest.raises(ZeroDivisionError, match="pricing bug"):
            advisor.recommend(get_model("opt-13b"),
                              InferenceRequest(batch_size=1))


class TestSensitivity:
    def test_all_conclusions_robust(self):
        results = all_sensitivities()
        fragile = [r for r in results if not r.robust]
        assert not fragile, [r.knob for r in fragile]

    def test_pcie_margin_decreases_with_efficiency(self):
        result = pcie_efficiency_sensitivity()
        margins = [p.margin for p in result.points]
        assert margins == sorted(margins, reverse=True)

    def test_stream_margin_increases_with_efficiency(self):
        result = stream_efficiency_sensitivity()
        margins = [p.margin for p in result.points]
        assert margins == sorted(margins)

    def test_zigzag_margin_increases_with_slope(self):
        result = zigzag_slope_sensitivity()
        margins = [p.margin for p in result.points]
        assert margins == sorted(margins)

    def test_points_record_settings(self):
        result = pcie_efficiency_sensitivity()
        assert [p.value for p in result.points] == [0.2, 0.35, 0.5, 0.7]
