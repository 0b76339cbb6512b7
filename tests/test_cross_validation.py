"""Cross-validation: independent code paths must agree.

Several quantities are computed twice in this codebase by design — once
through the operator graph and once through closed-form footprint math,
or once through a specialized engine and once through the base engine in
a degenerate configuration. These tests pin the agreements, so a
refactor that breaks one path against the other fails loudly.
"""

import pytest

from repro.engine.backend import QuantizedBackend
from repro.engine.inference import InferenceSimulator, simulate
from repro.engine.kvcache import KVCacheManager
from repro.engine.request import InferenceRequest
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.layers import total_flops, total_weight_bytes
from repro.models.memory import (
    kv_cache_bytes,
    kv_cache_bytes_per_token,
    weight_bytes,
)
from repro.models.opgraph import decode_step_ops, prefill_ops
from repro.models.registry import evaluated_models, get_model
from repro.quant.weightonly import QuantConfig, QuantScheme
from repro.utils.units import GB


class TestOpGraphVsClosedForm:
    """Operator-graph totals vs footprint formulas, across the model zoo."""

    @pytest.mark.parametrize("model_key", [
        "opt-1.3b", "opt-6.7b", "opt-13b", "opt-30b", "opt-66b",
        "llama2-7b", "llama2-13b", "llama2-70b",
    ])
    def test_decode_weight_stream_matches_weight_footprint(self, model_key):
        model = get_model(model_key)
        streamed = total_weight_bytes(decode_step_ops(model, 1, 64))
        assert streamed == pytest.approx(
            weight_bytes(model, DType.BF16), rel=0.05)

    @pytest.mark.parametrize("model_key", ["opt-13b", "llama2-70b",
                                           "mixtral-8x7b"])
    def test_prefill_kv_writes_match_formula(self, model_key):
        model = get_model(model_key)
        batch, seq = 2, 96
        written = sum(op.kv_write_bytes
                      for op in prefill_ops(model, batch, seq))
        assert written == pytest.approx(kv_cache_bytes(model, seq, batch))

    @pytest.mark.parametrize("model_key", ["opt-6.7b", "llama2-70b"])
    def test_decode_flops_match_2x_active_params(self, model_key):
        model = get_model(model_key)
        flops = total_flops(decode_step_ops(model, 1, 64))
        assert flops == pytest.approx(2.0 * model.param_count(), rel=0.12)


class TestDegenerateConfigsAgree:
    """Specialized engines in neutral configurations match the base engine."""

    def test_quant_none_matches_base_engine(self):
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        request = InferenceRequest(batch_size=4, output_len=8)
        base = simulate(spr, model, request)
        neutral = InferenceSimulator(spr, backend=QuantizedBackend(
            QuantConfig(scheme=QuantScheme.NONE))).run(model, request)
        assert neutral.e2e_s == pytest.approx(base.e2e_s, rel=0.01)
        assert neutral.ttft_s == pytest.approx(base.ttft_s, rel=0.01)

    def test_summary_dict_matches_properties(self):
        result = simulate(get_platform("spr"), get_model("opt-6.7b"),
                          InferenceRequest(batch_size=2, output_len=4))
        summary = result.summary()
        assert summary["e2e_s"] == result.e2e_s
        assert summary["decode_throughput"] == result.decode_throughput

    def test_sweep_row_metrics_match_direct_run(self):
        from repro.core.runner import CharacterizationSweep
        spr = get_platform("spr")
        model = get_model("opt-6.7b")
        row = CharacterizationSweep([spr], [model], [4]).run()[0]
        direct = simulate(spr, model, InferenceRequest(batch_size=4))
        assert row.metrics["e2e_s"] == pytest.approx(direct.e2e_s)


class TestKvManagersAgree:
    """The block accountant agrees with the closed-form KV footprint.

    ``models.memory.kv_cache_bytes`` is the math behind the batching
    simulator's memory check; the accountant must reproduce it for
    block-aligned lengths in both the paged and the reserved discipline.
    """

    @staticmethod
    def disciplines(model, length):
        return (KVCacheManager(model, 8 * GB),
                KVCacheManager(model, 8 * GB, reserve_tokens=length))

    def test_bytes_per_token_identical(self):
        model = get_model("llama2-13b")
        paged, reserved = self.disciplines(model, 4096)
        assert paged.bytes_per_token == reserved.bytes_per_token
        assert paged.bytes_per_token == kv_cache_bytes_per_token(model)

    def test_cached_tokens_track_identically(self):
        model = get_model("opt-6.7b")
        paged, reserved = self.disciplines(model, 128)
        pid = paged.allocate(100)
        rid = reserved.allocate(100)
        for _ in range(25):
            paged.append_token(pid)
            reserved.append_token(rid)
        assert paged.cached_tokens == reserved.cached_tokens == 125

    @pytest.mark.parametrize("model_key", ["opt-6.7b", "llama2-13b",
                                           "llama2-70b"])
    @pytest.mark.parametrize("length,n", [(16, 1), (128, 8), (2048, 3)])
    def test_allocated_bytes_match_kv_cache_bytes(self, model_key,
                                                  length, n):
        model = get_model(model_key)
        for kv in self.disciplines(model, length):
            for _ in range(n):
                kv.allocate(length)
            assert kv.allocated_bytes == kv_cache_bytes(model, length, n)

    def test_reservation_rounds_up_to_whole_blocks(self):
        kv = KVCacheManager(get_model("llama2-13b"), 8 * GB,
                            block_tokens=16, reserve_tokens=17)
        kv.allocate(1)
        assert kv.used_blocks == 2
        assert kv.allocated_bytes == kv_cache_bytes(
            get_model("llama2-13b"), 32, 1)


class TestPhaseDecomposition:
    """Whole-request metrics must decompose into their parts, everywhere."""

    @pytest.mark.parametrize("platform_key", ["icl", "spr", "h100"])
    def test_e2e_is_prefill_plus_decode(self, platform_key):
        result = simulate(get_platform(platform_key), get_model("opt-6.7b"),
                          InferenceRequest(batch_size=2))
        assert result.e2e_s == pytest.approx(
            result.prefill.time_s + result.decode.time_s)

    def test_decode_time_is_sum_of_steps(self):
        # TPOT * steps must reconstruct the decode phase exactly.
        result = simulate(get_platform("spr"), get_model("opt-6.7b"),
                          InferenceRequest(output_len=16))
        assert result.tpot_s * 15 == pytest.approx(result.decode.time_s)

    def test_phase_traffic_decomposes_by_category(self):
        result = simulate(get_platform("spr"), get_model("llama2-13b"),
                          InferenceRequest(batch_size=2, output_len=4))
        for phase in (result.prefill, result.decode):
            assert phase.total_bytes == pytest.approx(
                phase.weight_bytes + phase.activation_bytes
                + phase.kv_bytes)


class TestModelZooConsistency:
    def test_every_evaluated_model_simulates_on_spr(self):
        spr = InferenceSimulator(get_platform("spr"))
        request = InferenceRequest(output_len=2)
        for model in evaluated_models():
            result = spr.run(model, request)
            assert result.e2e_s > 0, model.name

    def test_bigger_models_are_never_faster_on_decode(self):
        spr = get_platform("spr")
        request = InferenceRequest(output_len=2)
        tpots = [simulate(spr, model, request).tpot_s
                 for model in evaluated_models()]
        # evaluated_models is parameter-count ordered; TPOT must follow
        # (decode cost tracks weight bytes on a memory-bound platform).
        # Near-identical sizes (OPT-6.7B vs LLaMA2-7B differ by <0.1%)
        # may wobble within a percent; allow that slack.
        for earlier, later in zip(tpots, tpots[1:]):
            assert later > earlier * 0.99
