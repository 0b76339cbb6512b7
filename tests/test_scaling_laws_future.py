"""Batch-scaling fit and future-CPU what-if tests."""

import pytest

from repro.analysis.scaling_laws import (
    BatchScalingFit,
    fit_batch_scaling,
    measure_batch_scaling,
)
from repro.engine.inference import simulate
from repro.engine.request import InferenceRequest
from repro.hardware.datatypes import DType
from repro.hardware.future import scaled_spr
from repro.hardware.registry import get_platform
from repro.models.registry import get_model


class TestBatchScalingFit:
    def test_recovers_exact_saturation_curve(self):
        t_max, b_half = 1000.0, 8.0
        samples = [(b, t_max * b / (b + b_half)) for b in (1, 2, 4, 8, 16, 32)]
        fit = fit_batch_scaling(samples)
        assert fit.t_max == pytest.approx(t_max, rel=1e-6)
        assert fit.b_half == pytest.approx(b_half, rel=1e-6)
        assert fit.fit_error() < 1e-9

    def test_knee_formula(self):
        fit = BatchScalingFit(t_max=100.0, b_half=10.0, samples=[(1, 9.1)])
        # b/(b+10) = 0.8 -> b = 40.
        assert fit.knee_batch() == pytest.approx(40.0)

    def test_predicted_bounded_by_t_max(self):
        fit = BatchScalingFit(t_max=100.0, b_half=10.0, samples=[(1, 9.1)])
        assert fit.predicted(10_000) < 100.0

    def test_rejects_insufficient_samples(self):
        with pytest.raises(ValueError):
            fit_batch_scaling([(1, 10.0)])

    def test_rejects_single_batch_size(self):
        with pytest.raises(ValueError):
            fit_batch_scaling([(4, 10.0), (4, 11.0)])

    def test_measured_fit_is_good(self):
        fit = measure_batch_scaling(get_platform("spr"),
                                    get_model("llama2-13b"))
        assert fit.fit_error() < 0.10
        assert fit.t_max > 0 and fit.b_half > 0

    def test_higher_bandwidth_platform_higher_asymptote(self):
        model = get_model("llama2-13b")
        icl = measure_batch_scaling(get_platform("icl"), model)
        spr = measure_batch_scaling(get_platform("spr"), model)
        assert spr.t_max > 3 * icl.t_max


class TestScaledSpr:
    def test_identity_scales_match_stock(self):
        stock = get_platform("spr")
        scaled = scaled_spr(1.0, 1.0)
        assert scaled.peak_flops(DType.BF16) == stock.peak_flops(DType.BF16)
        assert scaled.peak_memory_bandwidth == stock.peak_memory_bandwidth

    def test_compute_scaling(self):
        doubled = scaled_spr(compute_scale=2.0)
        assert doubled.peak_flops(DType.BF16) == pytest.approx(
            2 * get_platform("spr").peak_flops(DType.BF16))

    def test_bandwidth_scaling(self):
        tripled = scaled_spr(bandwidth_scale=3.0)
        assert tripled.peak_memory_bandwidth == pytest.approx(
            3 * get_platform("spr").peak_memory_bandwidth)

    def test_capacity_unchanged(self):
        assert scaled_spr(2.0, 3.0).memory_capacity == \
            get_platform("spr").memory_capacity

    def test_bandwidth_moves_decode_compute_does_not(self):
        model = get_model("opt-13b")
        request = InferenceRequest(batch_size=1)
        stock = simulate(get_platform("spr"), model, request)
        more_compute = simulate(scaled_spr(compute_scale=4.0), model, request)
        more_bandwidth = simulate(scaled_spr(bandwidth_scale=2.0), model,
                                  request)
        assert more_compute.tpot_s == pytest.approx(stock.tpot_s, rel=0.02)
        assert more_bandwidth.tpot_s < stock.tpot_s * 0.6

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            scaled_spr(compute_scale=0.0)
