"""GEMM-simulator tests, including Fig. 1 shape checks."""

import dataclasses

import pytest

from repro.gemm.simulator import GemmSimulator
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform


class TestGemmSimulator:
    def test_time_positive(self):
        sim = GemmSimulator(get_platform("spr"))
        assert sim.time(128, 128, 128).time_s > 0

    def test_throughput_below_peak(self):
        spr = get_platform("spr")
        sim = GemmSimulator(spr)
        tp = sim.throughput_tflops(8192, 8192, 8192)
        assert tp < spr.peak_flops(DType.BF16) / 1e12

    def test_large_gemm_compute_bound(self):
        sim = GemmSimulator(get_platform("spr"))
        assert not sim.time(8192, 8192, 8192).memory_bound

    def test_gemv_memory_bound(self):
        sim = GemmSimulator(get_platform("spr"))
        assert sim.time(1, 8192, 8192).memory_bound

    def test_spr_dispatches_large_gemm_to_amx(self):
        sim = GemmSimulator(get_platform("spr"))
        assert sim.time(4096, 4096, 4096).engine.name == "AMX"

    def test_unsupported_dtype_raises(self):
        spr = get_platform("spr")
        no_bf16 = dataclasses.replace(spr, engines=[
            dataclasses.replace(engine, peak_flops={
                dtype: rate for dtype, rate in engine.peak_flops.items()
                if dtype is not DType.BF16})
            for engine in spr.engines])
        with pytest.raises(ValueError, match="has no engine for bf16"):
            GemmSimulator(no_bf16)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            GemmSimulator(get_platform("spr")).time(0, 1, 1)


def square_tflops(key, size):
    """Achieved TFLOP/s of one size^3 BF16 GEMM (Fig. 1's y-axis)."""
    return GemmSimulator(get_platform(key)).throughput_tflops(size, size, size)


class TestFig1Shape:
    """The orderings Fig. 1 shows must hold."""

    def test_platform_ordering_at_large_size(self):
        results = {key: square_tflops(key, 8192)
                   for key in ("icl", "spr", "a100", "h100")}
        assert results["h100"] > results["a100"] > results["spr"] > results["icl"]

    def test_spr_within_2x_of_a100_at_large_size(self):
        spr = square_tflops("spr", 8192)
        a100 = square_tflops("a100", 8192)
        assert a100 / spr < 2.0

    def test_spr_amx_near_10x_icl_at_large_size(self):
        spr = square_tflops("spr", 8192)
        icl = square_tflops("icl", 8192)
        assert 6.0 < spr / icl < 13.0

    def test_gpu_advantage_shrinks_at_small_sizes(self):
        # Kernel-launch overheads and SM underutilization: at 256^3 the
        # CPU-GPU gap is far smaller than at 8192^3.
        def ratio(size):
            h100 = square_tflops("h100", size)
            spr = square_tflops("spr", size)
            return h100 / spr
        assert ratio(256) < ratio(8192)

    def test_throughput_monotone_in_size(self):
        for key in ("icl", "spr", "a100", "h100"):
            series = [square_tflops(key, size)
                      for size in (256, 512, 1024, 2048, 4096, 8192)]
            assert series == sorted(series)
