"""Coverage for the remaining under-tested corners."""

import pytest

from repro.analysis.roofline_chart import (CHART_HEIGHT, CHART_WIDTH,
                                           render_roofline)
from repro.core.runner import run_inference
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.perfcounters.collector import CounterModel
from repro.utils.units import NS
from repro.workloads.generator import generate_requests, chatbot_workload
from repro.workloads.serving import serve


class TestCountersOnGpu:
    def test_gpu_counters_derivable(self):
        # The counter model targets CPU figures but must degrade
        # gracefully for GPU runs (no UPI, no NUMA remoteness).
        counter_model = CounterModel(get_platform("h100"))
        estimate = counter_model.estimate(get_model("opt-6.7b"),
                                          InferenceRequest(batch_size=4))
        assert estimate.llc_mpki > 0
        assert estimate.upi_utilization == 0.0
        assert estimate.remote_llc_accesses == 0.0

    def test_gpu_uses_tensor_instruction_width(self):
        cpu = CounterModel(get_platform("icl"))
        gpu = CounterModel(get_platform("h100"))
        request = InferenceRequest(batch_size=4, output_len=4)
        model = get_model("opt-6.7b")
        # Same FLOPs, far wider instructions on the tensor path: fewer
        # compute instructions per FLOP on the GPU.
        assert gpu._flops_per_instruction() > cpu._flops_per_instruction()


class TestFormattingHelpers:
    def test_ns_constant(self):
        assert NS == pytest.approx(1e-9)


class TestRooflineChartGeometry:
    def test_custom_dimensions(self):
        spr = get_platform("spr")
        text = render_roofline(spr, [("x", 10.0, 1e12)])
        body = text.splitlines()[1:1 + CHART_HEIGHT]
        assert all(len(line) <= CHART_WIDTH for line in body)

    def test_point_off_scale_handled(self):
        spr = get_platform("spr")
        # Absurd coordinates must clamp, not crash.
        text = render_roofline(spr, [("w", 1e9, 1e30), ("y", 1e-9, 1.0)])
        assert "roofline" in text


class TestServingStatsMath:
    def test_p99_interpolates_near_max_for_small_streams(self):
        requests = generate_requests(chatbot_workload(), 4, seed=2)
        results = [serve(get_platform("spr"), get_model("opt-1.3b"), [r])
                   for r in requests]
        stats = serve(get_platform("spr"), get_model("opt-1.3b"), requests)
        # Linear interpolation lands p99 between the two largest TTFTs —
        # no longer the silent max of the old nearest-rank index.
        ttfts = sorted(s.mean_ttft_s for s in results)
        assert ttfts[-2] <= stats.p99_ttft_s <= ttfts[-1]
        assert stats.p99_ttft_s >= stats.mean_ttft_s

    def test_throughput_definition(self):
        requests = generate_requests(chatbot_workload(), 3, seed=1)
        stats = serve(get_platform("spr"), get_model("opt-1.3b"), requests)
        assert stats.throughput == pytest.approx(
            stats.generated_tokens / stats.total_time_s)


class TestRunResultSurfaces:
    def test_prefill_throughput_both_engines(self):
        request = InferenceRequest(batch_size=2, input_len=64, output_len=4)
        for platform_key, model_key in (("spr", "opt-13b"),
                                        ("a100", "opt-30b")):
            result = run_inference(get_platform(platform_key),
                                   get_model(model_key), request)
            assert result.prefill_throughput == pytest.approx(
                2 * 64 / result.ttft_s)

    def test_config_label_propagates(self):
        result = run_inference(get_platform("spr"), get_model("opt-1.3b"),
                               InferenceRequest(output_len=2))
        assert result.config_label == "quad_flat/48c"
