"""GEMM efficiency-curve tests."""

import pytest

from repro.engine.backend import BaselineBackend
from repro.engine.executor import OperatorExecutor
from repro.gemm.efficiency import (
    EfficiencyCurve,
    _gemm_efficiency_cached,
    curve_key,
    gemm_efficiency,
)
from repro.hardware.compute import ComputeEngine, EngineKind, TileShape
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.layers import Op, OpKind


def amx_engine():
    return next(e for e in get_platform("spr").engines if e.name == "AMX")


def avx_engine():
    return next(e for e in get_platform("spr").engines
                if e.name == "AVX-512")


def gpu_engine():
    return get_platform("h100").engines[0]


class TestEfficiencyCurve:
    def test_ramp_half_point(self):
        curve = EfficiencyCurve(0.8, 10, 10, 10)
        assert curve.ramp(10, 10) == pytest.approx(0.5)

    def test_ramp_saturates(self):
        curve = EfficiencyCurve(0.8, 10, 10, 10)
        assert curve.ramp(10000, 10) > 0.99

    def test_rejects_bad_ceiling(self):
        with pytest.raises(ValueError):
            EfficiencyCurve(0.0, 1, 1, 1)
        with pytest.raises(ValueError):
            EfficiencyCurve(1.5, 1, 1, 1)


class TestGemmEfficiency:
    def test_bounded_in_unit_interval(self):
        for dims in [(1, 1, 1), (16, 16, 32), (4096, 4096, 4096)]:
            for engine in (amx_engine(), avx_engine(), gpu_engine()):
                eff = gemm_efficiency(engine, *dims)
                assert 0 < eff <= 1

    def test_monotone_in_size_for_square(self):
        effs = [gemm_efficiency(amx_engine(), s, s, s)
                for s in (64, 256, 1024, 4096)]
        assert effs == sorted(effs)

    def test_amx_beats_avx_at_large_sizes_in_absolute_throughput(self):
        amx, avx = amx_engine(), avx_engine()
        size = 4096
        amx_tp = amx.peak(DType.BF16) * gemm_efficiency(amx, size, size, size)
        avx_tp = avx.peak(DType.BF16) * gemm_efficiency(avx, size, size, size)
        assert amx_tp > 5 * avx_tp

    def test_avx_can_win_at_m1(self):
        # GEMV-like shapes: AMX tile waste makes AVX competitive in
        # efficiency terms (absolute throughput decided by the simulator).
        amx_eff = gemm_efficiency(amx_engine(), 1, 4096, 4096)
        avx_eff = gemm_efficiency(avx_engine(), 1, 4096, 4096)
        assert avx_eff > amx_eff

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            gemm_efficiency(avx_engine(), 0, 1, 1)

    def test_never_returns_zero(self):
        engine = ComputeEngine("amx-like", EngineKind.MATRIX,
                               {DType.BF16: 1e12},
                               tile=TileShape(16, 16, 32))
        assert gemm_efficiency(engine, 1, 1, 1) >= 1e-4


class TestEfficiencyMemoKey:
    def test_key_is_built_from_strings_and_ints(self):
        assert curve_key(amx_engine()) == ("matrix", (16, 16, 32))
        assert curve_key(avx_engine()) == ("vector", None)
        assert curve_key(gpu_engine())[0] == "gpu_tensor"

    def test_executor_and_gemm_efficiency_share_one_memo(self):
        executor = OperatorExecutor(get_platform("spr"), BaselineBackend(),
                                    bandwidth=3e11)
        op = Op("probe", OpKind.LINEAR, m=7, n=1234, k=4321,
                weight_bytes=1.0)
        executor.time_op(op)
        hits = _gemm_efficiency_cached.cache_info().hits
        gemm_efficiency(amx_engine(), 7, 1234, 4321)
        gemm_efficiency(avx_engine(), 7, 1234, 4321)
        assert _gemm_efficiency_cached.cache_info().hits == hits + 2

