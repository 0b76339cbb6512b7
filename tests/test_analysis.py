"""Analysis-tooling tests: cost, bottleneck attribution, roofline charts."""

import pytest

from repro.analysis.bottleneck import BottleneckAnalyzer
from repro.analysis.cost import (
    cost_efficiency_ratio,
    list_price,
    price_ratio,
    throughput_per_kilodollar,
)
from repro.analysis.roofline_chart import (
    phase_point,
    render_roofline,
    ridge_point,
    roofline_for_run,
)
from repro.core.runner import run_inference
from repro.engine.inference import simulate
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model


class TestCost:
    def test_paper_price_ratio(self):
        # Paper footnote 1: Max 9468 is ~3x cheaper than H100-80GB.
        ratio = price_ratio("H100-80GB", "SPR-Max-9468")
        assert 2.5 < ratio < 3.5

    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError, match="no listing price"):
            list_price("TPU-v5")

    def test_throughput_per_dollar_positive(self):
        result = run_inference(get_platform("spr"), get_model("opt-13b"))
        assert throughput_per_kilodollar(result) > 0

    def test_cpu_wins_per_dollar_on_offloaded_model(self):
        request = InferenceRequest(batch_size=1)
        cpu = run_inference(get_platform("spr"), get_model("opt-66b"), request)
        gpu = run_inference(get_platform("h100"), get_model("opt-66b"), request)
        assert cost_efficiency_ratio(cpu, gpu) > 5.0

    def test_per_dollar_gap_narrows_for_small_models(self):
        request = InferenceRequest(batch_size=1)
        cpu = run_inference(get_platform("spr"), get_model("opt-13b"), request)
        gpu = run_inference(get_platform("h100"), get_model("opt-13b"), request)
        # GPU wins absolute throughput ~3.5x but only ~1.2x per dollar.
        absolute = gpu.e2e_throughput / cpu.e2e_throughput
        per_dollar = 1.0 / cost_efficiency_ratio(cpu, gpu)
        assert per_dollar < absolute / 2


class TestBottleneck:
    def setup_method(self):
        self.analyzer = BottleneckAnalyzer(get_platform("spr"))
        self.model = get_model("llama2-13b")
        self.request = InferenceRequest(batch_size=8)

    def test_shares_sum_to_one(self):
        attribution = self.analyzer.prefill(self.model, self.request)
        assert sum(op.share for op in attribution.ops) == pytest.approx(1.0)

    def test_ops_sorted_by_time(self):
        attribution = self.analyzer.decode_step(self.model, self.request)
        times = [op.time_s for op in attribution.ops]
        assert times == sorted(times, reverse=True)

    def test_decode_memory_bound_dominates(self):
        attribution = self.analyzer.decode_step(self.model, self.request)
        assert attribution.bound_shares().get("memory", 0.0) > 0.8

    def test_prefill_compute_dominates_at_big_batch(self):
        attribution = self.analyzer.prefill(
            self.model, InferenceRequest(batch_size=32))
        assert attribution.bound_shares().get("compute", 0.0) > 0.5

    def test_dominant_is_a_gemm(self):
        attribution = self.analyzer.prefill(self.model, self.request)
        assert attribution.ops[0].name in {
            "qkv_proj", "ffn_gate_up", "ffn_up", "ffn_down", "out_proj"}

    def test_explicit_kv_len(self):
        # The step sits at the request's mid-generation KV length, so the
        # prompt length sets it.
        early = self.analyzer.decode_step(
            self.model, InferenceRequest(input_len=8, output_len=1))
        late = self.analyzer.decode_step(
            self.model, InferenceRequest(input_len=2048, output_len=1))
        assert late.total_s > early.total_s


class TestRooflineChart:
    def test_ridge_point_definition(self):
        spr = get_platform("spr")
        from repro.hardware.datatypes import DType
        expected = spr.peak_flops(DType.BF16) / (
            spr.peak_memory_bandwidth * spr.stream_efficiency)
        assert ridge_point(spr) == pytest.approx(expected)

    def test_phase_point(self):
        result = simulate(get_platform("spr"), get_model("opt-6.7b"))
        intensity, achieved = phase_point(result.prefill)
        assert intensity > 0 and achieved > 0
        from repro.hardware.datatypes import DType
        assert achieved <= get_platform("spr").peak_flops(DType.BF16)

    def test_render_contains_roof_and_points(self):
        spr = get_platform("spr")
        text = render_roofline(spr, [("prefill", 500.0, 1e14),
                                     ("decode", 2.0, 1e12)])
        assert "*" in text
        assert "P = prefill" in text
        assert "D = decode" in text

    def test_roofline_for_run(self):
        result = simulate(get_platform("spr"), get_model("llama2-13b"),
                          InferenceRequest(batch_size=8))
        text = roofline_for_run(get_platform("spr"), result.prefill,
                                result.decode)
        assert "roofline: SPR-Max-9468" in text
        lines = text.splitlines()
        assert len(lines) > 15

    def test_decode_point_left_of_prefill(self):
        # Decode's arithmetic intensity is far lower than prefill's.
        result = simulate(get_platform("spr"), get_model("llama2-13b"),
                          InferenceRequest(batch_size=8))
        prefill_intensity, _ = phase_point(result.prefill)
        decode_intensity, _ = phase_point(result.decode)
        assert decode_intensity < prefill_intensity / 10
