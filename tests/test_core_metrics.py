"""Metric-helper tests."""

import pytest

from repro.core.metrics import (
    ALL_METRICS,
    LATENCY_METRICS,
    THROUGHPUT_METRICS,
    arithmetic_mean,
    average_summaries,
    normalize_summary,
)
from repro.core.comparison import PairedComparison, per_model_speedup_range


def comparison(normalized_e2e_s):
    return PairedComparison(model="m", batch_size=1, baseline_platform="a",
                            target_platform="b",
                            normalized={"e2e_s": normalized_e2e_s})


class TestMetricSets:
    def test_six_metrics(self):
        assert len(ALL_METRICS) == 6
        assert set(LATENCY_METRICS) | set(THROUGHPUT_METRICS) == set(ALL_METRICS)

    def test_latency_classification(self):
        assert "e2e_s" in LATENCY_METRICS
        assert "e2e_throughput" not in LATENCY_METRICS


class TestMeans:
    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0


class TestAverageSummaries:
    def test_averages_each_metric(self):
        rows = [
            {m: 1.0 for m in ALL_METRICS},
            {m: 3.0 for m in ALL_METRICS},
        ]
        avg = average_summaries(rows)
        assert all(v == 2.0 for v in avg.values())

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_summaries([])


class TestNormalize:
    def test_divides_by_baseline(self):
        out = normalize_summary({"e2e_s": 2.0}, {"e2e_s": 4.0})
        assert out["e2e_s"] == 0.5

    def test_missing_baseline_key_skipped(self):
        out = normalize_summary({"e2e_s": 2.0, "extra": 1.0}, {"e2e_s": 4.0})
        assert "extra" not in out

    def test_zero_baseline_maps_to_one(self):
        out = normalize_summary({"tpot_s": 0.0}, {"tpot_s": 0.0})
        assert out["tpot_s"] == 1.0


class TestReductionSpeedup:
    def test_paper_style_reduction(self):
        # "84.1% latency reduction" == 6.3x speedup.
        assert comparison(1.0 / 6.3).e2e_latency_reduction_pct == \
            pytest.approx(84.1, abs=0.1)

    def test_speedup(self):
        assert per_model_speedup_range([comparison(2.0 / 10.0)]) == \
            {"m": pytest.approx(5.0)}
