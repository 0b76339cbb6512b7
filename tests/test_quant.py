"""Quantization-extension tests."""

import pytest

from repro.engine.backend import QuantizedBackend
from repro.engine.inference import InferenceSimulator, simulate
from repro.engine.request import InferenceRequest
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.layers import Op, OpKind
from repro.models.memory import weight_bytes
from repro.models.registry import get_model
from repro.quant.weightonly import (
    QuantConfig,
    QuantScheme,
    quantize_op,
    quantized_weight_bytes,
)


class TestQuantConfig:
    def test_none_scheme_keeps_bf16(self):
        config = QuantConfig(scheme=QuantScheme.NONE)
        assert config.weight_bytes_ratio() == 1.0

    def test_w8_halves_weight_bytes_plus_scales(self):
        config = QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT8)
        ratio = config.weight_bytes_ratio()
        assert 0.5 < ratio < 0.52  # 0.5 + scale overhead

    def test_w8_computes_in_bf16(self):
        assert QuantConfig(
            scheme=QuantScheme.WEIGHT_ONLY_INT8).compute_dtype is DType.BF16

    def test_w8a8_computes_in_int8(self):
        assert QuantConfig(
            scheme=QuantScheme.FULL_INT8).compute_dtype is DType.INT8


class TestQuantizeOp:
    def test_weight_gemm_shrinks(self):
        op = Op("proj", OpKind.LINEAR, m=16, n=16, k=16, weight_bytes=1000)
        quantized = quantize_op(op, QuantConfig())
        assert quantized.weight_bytes < op.weight_bytes

    def test_activations_untouched(self):
        op = Op("proj", OpKind.LINEAR, m=16, n=16, k=16,
                weight_bytes=1000, activation_bytes=500)
        quantized = quantize_op(op, QuantConfig())
        assert quantized.activation_bytes == 500

    def test_weightless_op_unchanged(self):
        op = Op("softmax", OpKind.SOFTMAX, activation_bytes=100)
        assert quantize_op(op, QuantConfig()) is op

    def test_none_scheme_noop(self):
        op = Op("proj", OpKind.LINEAR, m=1, n=1, k=1, weight_bytes=100)
        assert quantize_op(op, QuantConfig(scheme=QuantScheme.NONE)) is op

    def test_quantized_weight_bytes(self):
        model = get_model("opt-13b")
        quantized = quantized_weight_bytes(model, QuantConfig())
        assert quantized == pytest.approx(
            weight_bytes(model, DType.BF16)
            * QuantConfig().weight_bytes_ratio())


class TestQuantizedSimulation:
    def test_decode_speedup_tracks_byte_reduction(self):
        # Decode is bandwidth-bound, so ~0.51x weight bytes should buy
        # close to 2x TPOT for an HBM-resident model.
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        request = InferenceRequest(batch_size=1)
        base = simulate(spr, model, request)
        quantized = InferenceSimulator(
            spr, backend=QuantizedBackend()).run(model, request)
        gain = base.tpot_s / quantized.tpot_s
        assert 1.6 < gain < 2.1

    def test_spilled_model_gains_more(self):
        # OPT-66B spills HBM in BF16; INT8 pulls it back inside, so the
        # gain exceeds the pure byte reduction.
        spr = get_platform("spr")
        request = InferenceRequest(batch_size=1)
        base = simulate(spr, get_model("opt-66b"), request)
        quantized = InferenceSimulator(
            spr, backend=QuantizedBackend()).run(get_model("opt-66b"),
                                                 request)
        assert base.tpot_s / quantized.tpot_s > 2.5

    def test_full_int8_at_least_as_fast_as_weight_only(self):
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        request = InferenceRequest(batch_size=16)
        w8 = InferenceSimulator(spr, backend=QuantizedBackend(
            QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT8))).run(
            model, request)
        w8a8 = InferenceSimulator(spr, backend=QuantizedBackend(
            QuantConfig(scheme=QuantScheme.FULL_INT8))).run(model, request)
        assert w8a8.e2e_s <= w8.e2e_s * 1.001

    def test_opt175b_fits_spr_when_quantized(self):
        # BF16 OPT-175B exceeds one SPR socket; INT8 weights fit.
        spr = get_platform("spr")
        simulator = InferenceSimulator(spr, backend=QuantizedBackend())
        request = InferenceRequest(batch_size=1, output_len=2)
        assert simulator.fits(get_model("opt-175b"), request)
        result = simulator.run(get_model("opt-175b"), request)
        assert result.e2e_s > 0
