"""Operator dataclass tests."""

import pytest

from repro.models.layers import (
    Op,
    OpKind,
    total_bytes,
    total_flops,
    total_weight_bytes,
)


class TestOp:
    def test_gemm_flops(self):
        op = Op("x", OpKind.LINEAR, m=4, n=8, k=16, instances=3)
        assert op.gemm_flops == 2 * 4 * 8 * 16 * 3

    def test_non_gemm_has_zero_gemm_flops(self):
        op = Op("norm", OpKind.NORM, extra_flops=100.0)
        assert op.gemm_flops == 0.0
        assert op.flops == 100.0

    def test_is_gemm(self):
        assert Op("x", OpKind.LINEAR, m=1, n=1, k=1).is_gemm
        assert not Op("x", OpKind.NORM).is_gemm

    def test_memory_bytes_sums_categories(self):
        op = Op("x", OpKind.LINEAR, m=1, n=1, k=1,
                weight_bytes=10, activation_bytes=20,
                kv_read_bytes=30, kv_write_bytes=40)
        assert op.memory_bytes == 100

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            Op("x", OpKind.NORM, weight_bytes=-1)

    @pytest.mark.parametrize("field", [
        "m", "n", "k", "instances", "weight_bytes", "activation_bytes",
        "kv_read_bytes", "kv_write_bytes", "extra_flops", "kernel_launches"])
    @pytest.mark.parametrize("bad", [-1, float("nan")])
    def test_rejects_negative_or_nan_field(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
            Op("x", OpKind.LINEAR, **{"m": 4, "n": 4, "k": 4, field: bad})

    def test_names_the_first_bad_field(self):
        with pytest.raises(ValueError, match="^k must be >= 0, got -2$"):
            Op("x", OpKind.LINEAR, m=4, n=4, k=-2, weight_bytes=-1.0)

    def test_default_kernel_launches(self):
        assert Op("x", OpKind.NORM).kernel_launches == 1


class TestAggregates:
    def make_ops(self):
        return [
            Op("a", OpKind.LINEAR, m=2, n=2, k=2, weight_bytes=8,
               activation_bytes=4),
            Op("b", OpKind.NORM, activation_bytes=16, extra_flops=5),
        ]

    def test_total_flops(self):
        assert total_flops(self.make_ops()) == 2 * 8 + 5

    def test_total_bytes(self):
        assert total_bytes(self.make_ops()) == 8 + 4 + 16

    def test_total_weight_bytes(self):
        assert total_weight_bytes(self.make_ops()) == 8
