"""Footprint-math tests, anchored to the paper's quoted numbers."""

import pytest

from repro.engine.backend import BaselineBackend
from repro.engine.request import InferenceRequest
from repro.hardware.datatypes import DType
from repro.models.memory import (
    kv_cache_bytes,
    kv_cache_bytes_per_token,
    peak_activation_bytes,
    weight_bytes,
)
from repro.models.registry import get_model
from repro.utils.units import GB


class TestWeightBytes:
    def test_opt175b_fp16_is_350gb(self):
        # Paper: "OPT-175B requires 350GB of memory to load the weights
        # with the FP16 data type".
        gb = weight_bytes(get_model("opt-175b"), DType.FP16) / GB
        assert gb == pytest.approx(350, rel=0.02)

    def test_llama70b_exceeds_single_h100(self):
        # Paper: "loading the LLaMA2-70B model onto GPUs requires at least
        # two H100 GPUs".
        assert weight_bytes(get_model("llama2-70b"), DType.FP16) > 80 * GB

    def test_int8_is_half_of_fp16(self):
        model = get_model("opt-13b")
        assert weight_bytes(model, DType.INT8) == pytest.approx(
            weight_bytes(model, DType.FP16) / 2)

    def test_bf16_equals_fp16(self):
        model = get_model("opt-13b")
        assert weight_bytes(model, DType.BF16) == weight_bytes(model, DType.FP16)


class TestKvCacheBytes:
    def test_paper_formula_for_mha(self):
        # Paper Section II-B: 2B * 2 * n_layers * d_model * n_seq * n_batch.
        model = get_model("llama2-13b")
        expected = 2 * 2 * model.n_layers * model.d_model * 4096 * 32
        assert kv_cache_bytes(model, 4096, 32) == pytest.approx(
            expected)

    def test_opt66b_at_4096_batch32_matches_paper(self):
        # Paper: "OPT-66B with a sequence length of 4096 and a batch size
        # of 32 requires 288GB of memory for KV caching" (GiB: 309 GB).
        gb = kv_cache_bytes(get_model("opt-66b"), 4096, 32) / GB
        assert gb == pytest.approx(309.2, rel=0.01)

    def test_linear_in_seq_len(self):
        model = get_model("llama2-13b")
        assert kv_cache_bytes(model, 2048, 4) == pytest.approx(
            2 * kv_cache_bytes(model, 1024, 4))

    def test_linear_in_batch(self):
        model = get_model("llama2-13b")
        assert kv_cache_bytes(model, 1024, 8) == pytest.approx(
            8 * kv_cache_bytes(model, 1024, 1))

    def test_gqa_shrinks_kv(self):
        llama70 = get_model("llama2-70b")
        # 8 of 64 heads: KV per token is 1/8 of the MHA equivalent.
        mha_equivalent = 2 * llama70.n_layers * llama70.d_model * 2
        assert kv_cache_bytes_per_token(llama70) == pytest.approx(
            mha_equivalent / 8)

    def test_per_token_consistency(self):
        model = get_model("opt-13b")
        assert kv_cache_bytes(model, 100, 3) == pytest.approx(
            300 * kv_cache_bytes_per_token(model))


def footprint(model, batch_size):
    """BF16 weights + KV + activations at 128 in / 32 out (160 tokens)."""
    return BaselineBackend().footprint_bytes(
        model, InferenceRequest(batch_size=batch_size))


class TestFootprint:
    def test_footprint_exceeds_weights(self):
        model = get_model("opt-13b")
        assert footprint(model, 8) > weight_bytes(model, DType.BF16)

    def test_activation_bytes_positive(self):
        assert peak_activation_bytes(get_model("opt-13b"), 128, 1) > 0

    def test_fits_in_a100_small_model(self):
        assert footprint(get_model("opt-13b"), 1) <= 40 * GB

    def test_opt30b_does_not_fit_a100(self):
        # Paper: A100 must offload OPT-30B.
        assert not footprint(get_model("opt-30b"), 1) <= 40 * GB

    def test_opt30b_fits_h100(self):
        # Paper: "the H100 GPU could accommodate the entire OPT-30B model".
        assert footprint(get_model("opt-30b"), 1) <= 80 * GB

    def test_opt66b_does_not_fit_h100(self):
        assert not footprint(get_model("opt-66b"), 1) <= 80 * GB
