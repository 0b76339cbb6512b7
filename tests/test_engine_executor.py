"""Operator-executor tests."""

import pytest

from repro.engine.backend import BaselineBackend
from repro.engine.executor import OperatorExecutor
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.layers import Op, OpKind
from repro.utils.units import gb_per_s


def executor(platform_key="spr", bandwidth=gb_per_s(400), scale=1.0):
    return OperatorExecutor(get_platform(platform_key), BaselineBackend(),
                            bandwidth, scale)


class TestGemmOps:
    def test_big_gemm_uses_amx_on_spr(self):
        op = Op("big", OpKind.LINEAR, m=4096, n=4096, k=4096)
        timing = executor().time_op(op)
        assert timing.engine_name == "AMX"

    def test_timing_legs_consistent(self):
        op = Op("x", OpKind.LINEAR, m=512, n=512, k=512, weight_bytes=1e6)
        t = executor().time_op(op)
        assert t.time_s == pytest.approx(
            max(t.compute_s, t.memory_s) + t.overhead_s)

    def test_memory_bound_flag(self):
        # Heavy traffic, tiny GEMM: memory leg dominates.
        op = Op("gemv", OpKind.LINEAR, m=1, n=4096, k=4096,
                weight_bytes=4096 * 4096 * 2)
        assert executor().time_op(op).memory_bound

    def test_compute_bound_flag(self):
        op = Op("big", OpKind.LINEAR, m=8192, n=8192, k=8192,
                weight_bytes=1e3)
        assert not executor().time_op(op).memory_bound

    def test_overhead_scales_with_kernel_launches(self):
        base = Op("x", OpKind.LINEAR, m=64, n=64, k=64, kernel_launches=1)
        many = Op("x", OpKind.LINEAR, m=64, n=64, k=64, kernel_launches=40)
        ex = executor()
        assert ex.time_op(many).overhead_s == pytest.approx(
            40 * ex.time_op(base).overhead_s)

    def test_instances_multiply_flops(self):
        one = Op("x", OpKind.LINEAR, m=512, n=512, k=512, instances=1)
        forty = Op("x", OpKind.LINEAR, m=512, n=512, k=512, instances=40)
        ex = executor()
        assert ex.time_op(forty).compute_s == pytest.approx(
            40 * ex.time_op(one).compute_s)


class TestBandwidthOps:
    def test_norm_is_memory_priced(self):
        op = Op("norm", OpKind.NORM, activation_bytes=4e9)
        t = executor(bandwidth=gb_per_s(400)).time_op(op)
        assert t.memory_s == pytest.approx(0.01)
        assert t.memory_bound

    def test_extra_flops_priced_on_vector_engine(self):
        op = Op("softmax", OpKind.SOFTMAX, extra_flops=1e12)
        t = executor().time_op(op)
        assert t.engine_name == "AVX-512"
        assert t.compute_s > 0


class TestConfiguration:
    def test_bandwidth_controls_memory_leg(self):
        op = Op("norm", OpKind.NORM, activation_bytes=1e9)
        slow = executor(bandwidth=gb_per_s(100)).time_op(op)
        fast = executor(bandwidth=gb_per_s(1000)).time_op(op)
        assert slow.time_s > fast.time_s

    def test_compute_scale_controls_compute_leg(self):
        op = Op("big", OpKind.LINEAR, m=4096, n=4096, k=4096)
        full = executor(scale=1.0).time_op(op)
        quarter = executor(scale=0.25).time_op(op)
        assert quarter.compute_s == pytest.approx(4 * full.compute_s)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            executor(bandwidth=0)

    def test_unsupported_dtype(self):
        with pytest.raises(ValueError, match="no engine"):
            OperatorExecutor(get_platform("spr"),
                             BaselineBackend(DType.FP16), gb_per_s(100))

    def test_time_ops_returns_per_op(self):
        ops = [Op("a", OpKind.NORM, activation_bytes=1e6),
               Op("b", OpKind.LINEAR, m=64, n=64, k=64)]
        timings = executor().time_ops(ops)
        assert [t.op.name for t in timings] == ["a", "b"]
