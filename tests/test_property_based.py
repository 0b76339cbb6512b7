"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.kvcache import KVCacheManager
from repro.gemm.efficiency import gemm_efficiency
from repro.gemm.roofline import attainable_flops, op_time
from repro.gemm.simulator import GemmSimulator
from repro.hardware.datatypes import DType
from repro.hardware.memory import MemorySystem, MemoryTechnology, MemoryTier
from repro.hardware.registry import get_platform
from repro.models.memory import kv_cache_bytes, weight_bytes
from repro.models.opgraph import decode_step_ops, prefill_ops
from repro.models.layers import total_bytes, total_flops
from repro.models.registry import get_model
from repro.offload.zigzag import (
    amortization_factor,
    amortized_transfer_time,
    exposed_transfer_time,
)
from repro.utils.formatting import normalize_series
from repro.utils.units import GB, gb_per_s

dims = st.integers(min_value=1, max_value=8192)
small_batch = st.integers(min_value=1, max_value=64)
seq_lens = st.integers(min_value=1, max_value=32768)
MODELS = ["opt-1.3b", "opt-13b", "llama2-7b", "llama2-70b"]


class TestGemmProperties:
    @given(m=dims, n=dims, k=dims)
    @settings(max_examples=60, deadline=None)
    def test_efficiency_in_unit_interval(self, m, n, k):
        for key in ("icl", "spr", "h100"):
            platform = get_platform(key)
            for engine in platform.engines:
                eff = gemm_efficiency(engine, m, n, k)
                assert 0 < eff <= 1

    @given(m=dims, n=dims, k=dims)
    @settings(max_examples=40, deadline=None)
    def test_gemm_time_positive_and_finite(self, m, n, k):
        sim = GemmSimulator(get_platform("spr"))
        timing = sim.time(m, n, k)
        assert timing.time_s > 0
        assert math.isfinite(timing.time_s)

    @given(m=dims, n=dims, k=dims)
    @settings(max_examples=40, deadline=None)
    def test_achieved_never_exceeds_peak(self, m, n, k):
        spr = get_platform("spr")
        sim = GemmSimulator(spr)
        assert sim.time(m, n, k).achieved_tflops * 1e12 <= \
            spr.peak_flops(DType.BF16) * 1.0001

    @given(m=dims, n=dims, k=dims, factor=st.integers(min_value=2, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_time_monotone_in_k(self, m, n, k, factor):
        assume(k * factor <= 16384)
        sim = GemmSimulator(get_platform("spr"))
        assert sim.time(m, n, k * factor).time_s >= sim.time(m, n, k).time_s


class TestRooflineProperties:
    @given(flops=st.floats(min_value=0, max_value=1e15),
           nbytes=st.floats(min_value=0, max_value=1e12),
           overhead=st.floats(min_value=0, max_value=1e-3))
    @settings(max_examples=60, deadline=None)
    def test_op_time_at_least_each_leg(self, flops, nbytes, overhead):
        peak, bw = 1e12, 1e11
        total = op_time(flops, nbytes, peak, bw, overhead=overhead)
        assert total >= flops / peak - 1e-12
        assert total >= nbytes / bw - 1e-12
        assert total >= overhead

    @given(intensity=st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_attainable_below_both_roofs(self, intensity):
        peak, bw = 2e12, 5e10
        attainable = attainable_flops(intensity, peak, bw)
        assert attainable <= peak
        assert attainable <= intensity * bw + 1e-6


class TestFootprintProperties:
    @given(seq=seq_lens, batch=small_batch,
           model_key=st.sampled_from(MODELS))
    @settings(max_examples=60, deadline=None)
    def test_kv_linear_in_batch(self, seq, batch, model_key):
        model = get_model(model_key)
        single = kv_cache_bytes(model, seq, 1)
        assert kv_cache_bytes(model, seq, batch) == pytest.approx(
            batch * single)

    @given(seq=st.integers(min_value=1, max_value=16384),
           model_key=st.sampled_from(MODELS))
    @settings(max_examples=40, deadline=None)
    def test_kv_linear_in_seq(self, seq, model_key):
        model = get_model(model_key)
        assert kv_cache_bytes(model, 2 * seq, 1) == pytest.approx(
            2 * kv_cache_bytes(model, seq, 1))

    @given(model_key=st.sampled_from(MODELS))
    @settings(max_examples=10, deadline=None)
    def test_weight_bytes_dtype_ordering(self, model_key):
        model = get_model(model_key)
        assert weight_bytes(model, DType.INT8) < \
            weight_bytes(model, DType.BF16) < weight_bytes(model, DType.FP32)


class TestOpGraphProperties:
    @given(batch=st.integers(min_value=1, max_value=32),
           seq=st.integers(min_value=1, max_value=512),
           model_key=st.sampled_from(MODELS))
    @settings(max_examples=30, deadline=None)
    def test_prefill_counts_positive(self, batch, seq, model_key):
        ops = prefill_ops(get_model(model_key), batch, seq)
        assert total_flops(ops) > 0
        assert total_bytes(ops) > 0

    @given(batch=st.integers(min_value=1, max_value=32),
           kv=st.integers(min_value=1, max_value=2048),
           model_key=st.sampled_from(MODELS))
    @settings(max_examples=30, deadline=None)
    def test_decode_kv_read_monotone_in_kv_len(self, batch, kv, model_key):
        model = get_model(model_key)
        read_short = sum(op.kv_read_bytes
                         for op in decode_step_ops(model, batch, kv))
        read_long = sum(op.kv_read_bytes
                        for op in decode_step_ops(model, batch, kv + 100))
        assert read_long > read_short


class TestMemorySystemProperties:
    @given(footprint_gb=st.floats(min_value=0.1, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_blend_bounded_by_tier_extremes(self, footprint_gb):
        system = MemorySystem([
            MemoryTier("HBM", MemoryTechnology.HBM_FLAT, 64 * GB,
                       gb_per_s(588)),
            MemoryTier("DDR5", MemoryTechnology.DDR5, 256 * GB,
                       gb_per_s(233.8)),
        ])
        blended = system.blended_bandwidth(footprint_gb * GB)
        assert gb_per_s(233.8) * 0.999 <= blended <= gb_per_s(588) * 1.001


class TestZigzagProperties:
    @given(batch=small_batch, raw=st.floats(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_amortized_never_exceeds_raw(self, batch, raw):
        assert amortized_transfer_time(raw, batch) <= raw + 1e-12

    @given(batch=small_batch)
    @settings(max_examples=30, deadline=None)
    def test_factor_at_least_one(self, batch):
        assert amortization_factor(batch) >= 1.0

    @given(transfer=st.floats(min_value=0, max_value=100),
           compute=st.floats(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_exposed_bounded(self, transfer, compute):
        exposed = exposed_transfer_time(transfer, compute)
        assert 0 <= exposed <= transfer + 1e-12


class TestKVCacheProperties:
    @given(allocs=st.lists(st.integers(min_value=1, max_value=1000),
                           min_size=1, max_size=20),
           reserve=st.sampled_from([None, 1024]))
    @settings(max_examples=40, deadline=None)
    def test_byte_accounting_exact(self, allocs, reserve):
        kv = KVCacheManager(get_model("opt-13b"), 64 * GB,
                            reserve_tokens=reserve)
        for tokens in allocs:
            kv.allocate(tokens)
        assert kv.cached_tokens == sum(allocs)
        held = [reserve or tokens for tokens in allocs]
        assert kv.allocated_bytes == pytest.approx(
            sum(-(-t // 16) * 16 for t in held) * kv.bytes_per_token)

    @given(allocs=st.lists(st.integers(min_value=1, max_value=100),
                           min_size=2, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_release_restores_accounting(self, allocs):
        kv = KVCacheManager(get_model("opt-13b"), 64 * GB)
        ids = [kv.allocate(t) for t in allocs]
        kv.release(ids[0])
        assert kv.cached_tokens == sum(allocs[1:])
        assert kv.used_blocks == sum(-(-t // 16) for t in allocs[1:])


class TestFormattingProperties:
    @given(values=st.lists(st.floats(min_value=0.01, max_value=1e6),
                           min_size=1, max_size=20),
           baseline=st.floats(min_value=0.01, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_normalize_roundtrip(self, values, baseline):
        normalized = normalize_series(values, baseline)
        restored = [v * baseline for v in normalized]
        for original, back in zip(values, restored):
            assert back == pytest.approx(original, rel=1e-9)
