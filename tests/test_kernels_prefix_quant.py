"""Fused attention, prefix caching, and extended-quantization tests."""

import pytest

from repro.engine.backend import QuantizedBackend
from repro.engine.inference import InferenceSimulator, simulate
from repro.engine.request import InferenceRequest
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.layers import total_bytes, total_flops
from repro.models.opgraph import prefill_ops
from repro.models.registry import get_model
from repro.quant.weightonly import QuantConfig, QuantScheme
from repro.serving.prefix_cache import PrefixCacheModel


class TestFusedAttention:
    def test_fusion_reduces_bytes_not_flops(self):
        model = get_model("llama2-13b")
        naive = prefill_ops(model, 1, 2048)
        fused = prefill_ops(model, 1, 2048, fused_attention=True)
        assert total_bytes(fused) < total_bytes(naive)
        assert total_flops(fused) == pytest.approx(total_flops(naive))

    def test_gain_grows_with_sequence(self):
        model = get_model("llama2-13b")

        def ratio(seq):
            return (total_bytes(prefill_ops(model, 1, seq))
                    / total_bytes(prefill_ops(model, 1, seq,
                                              fused_attention=True)))

        assert ratio(4096) > ratio(512) > ratio(128)

    def test_short_prompt_barely_changes(self):
        model = get_model("llama2-13b")
        naive = total_bytes(prefill_ops(model, 1, 64))
        fused = total_bytes(prefill_ops(model, 1, 64, fused_attention=True))
        assert naive / fused < 1.05

    def test_softmax_traffic_zero_when_fused(self):
        ops = prefill_ops(get_model("opt-6.7b"), 1, 256,
                          fused_attention=True)
        softmax = next(op for op in ops if op.name == "softmax")
        assert softmax.activation_bytes == 0.0
        assert softmax.extra_flops > 0  # the math still happens


class TestPrefixCache:
    @pytest.fixture(scope="class")
    def cache_model(self):
        return PrefixCacheModel(get_platform("spr"))

    def test_warm_faster_than_cold(self, cache_model):
        estimate = cache_model.estimate(get_model("llama2-13b"), 1024, 64)
        assert estimate.warm_ttft_s < estimate.cold_ttft_s

    def test_speedup_grows_with_prefix_share(self, cache_model):
        model = get_model("llama2-13b")
        small = cache_model.estimate(model, 256, 256).ttft_speedup
        large = cache_model.estimate(model, 2048, 64).ttft_speedup
        assert large > small

    def test_amortized_between_bounds(self, cache_model):
        estimate = cache_model.estimate(get_model("llama2-13b"), 1024, 64)
        amortized = estimate.amortized_ttft_s(0.5)
        assert estimate.warm_ttft_s < amortized < estimate.cold_ttft_s

    def test_amortized_extremes(self, cache_model):
        estimate = cache_model.estimate(get_model("llama2-13b"), 512, 64)
        assert estimate.amortized_ttft_s(1.0) == pytest.approx(
            estimate.warm_ttft_s)
        assert estimate.amortized_ttft_s(0.0) == pytest.approx(
            estimate.cold_ttft_s)

    def test_break_even_near_one(self, cache_model):
        value = cache_model.break_even_requests(
            get_model("llama2-13b"), 1024, 64)
        assert 0.5 < value < 4.0

    def test_rejects_bad_hit_rate(self, cache_model):
        estimate = cache_model.estimate(get_model("opt-6.7b"), 128, 32)
        with pytest.raises(ValueError):
            estimate.amortized_ttft_s(1.5)


def run_quantized(platform, quant, model, request):
    return InferenceSimulator(
        platform, backend=QuantizedBackend(quant)).run(model, request)


class TestExtendedQuant:
    def test_w4_halves_w8_weight_bytes(self):
        w8 = QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT8)
        w4 = QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT4)
        assert w4.weight_bytes_ratio() == pytest.approx(
            w8.weight_bytes_ratio() / 2, rel=0.1)

    def test_w4_decode_faster_than_w8(self):
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        request = InferenceRequest(batch_size=1)
        w8 = run_quantized(spr, QuantConfig(
            scheme=QuantScheme.WEIGHT_ONLY_INT8), model, request)
        w4 = run_quantized(spr, QuantConfig(
            scheme=QuantScheme.WEIGHT_ONLY_INT4), model, request)
        assert w4.tpot_s < w8.tpot_s

    def test_kv8_matters_only_at_long_context(self):
        spr = get_platform("spr")
        model = get_model("opt-66b")

        def gain(context):
            request = InferenceRequest(batch_size=1, input_len=context,
                                       output_len=4)
            base = run_quantized(spr, QuantConfig(
                scheme=QuantScheme.WEIGHT_ONLY_INT8), model, request)
            kv8 = run_quantized(spr, QuantConfig(
                scheme=QuantScheme.WEIGHT_ONLY_INT8, kv_dtype=DType.INT8),
                model, request)
            return base.tpot_s / kv8.tpot_s

        assert gain(2048) > gain(128)

    def test_kv_ratio(self):
        assert QuantConfig(kv_dtype=DType.INT8).kv_bytes_ratio() == 0.5
        assert QuantConfig().kv_bytes_ratio() == 1.0

    def test_w4_unspills_opt66b(self):
        # 33 GB of W4 weights fit HBM entirely; gain exceeds byte ratio.
        spr = get_platform("spr")
        request = InferenceRequest(batch_size=1)
        base = simulate(spr, get_model("opt-66b"), request)
        w4 = run_quantized(spr, QuantConfig(
            scheme=QuantScheme.WEIGHT_ONLY_INT4), get_model("opt-66b"),
            request)
        assert base.tpot_s / w4.tpot_s > 5.0
