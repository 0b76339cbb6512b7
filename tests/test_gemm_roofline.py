"""Roofline-primitive tests."""

import pytest

from repro.gemm.roofline import (
    attainable_flops,
    compute_time,
    memory_time,
    op_time,
)


class TestComputeTime:
    def test_basic(self):
        assert compute_time(1e12, 1e12) == pytest.approx(1.0)

    def test_efficiency_slows(self):
        assert compute_time(1e12, 1e12, efficiency=0.5) == pytest.approx(2.0)

    def test_zero_flops_is_free(self):
        assert compute_time(0, 1e12) == 0.0

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            compute_time(1, 1e12, efficiency=0.0)
        with pytest.raises(ValueError):
            compute_time(1, 1e12, efficiency=1.1)

    def test_rejects_zero_peak(self):
        with pytest.raises(ValueError):
            compute_time(1, 0)


class TestMemoryTime:
    def test_basic(self):
        assert memory_time(1e9, 1e9) == pytest.approx(1.0)

    def test_zero_bytes_is_free(self):
        assert memory_time(0, 1e9) == 0.0


class TestOpTime:
    def test_takes_max_of_legs(self):
        # compute 2s, memory 1s -> 2s.
        assert op_time(2e12, 1e9, 1e12, 1e9) == pytest.approx(2.0)
        # compute 1s, memory 3s -> 3s.
        assert op_time(1e12, 3e9, 1e12, 1e9) == pytest.approx(3.0)

    def test_overhead_added(self):
        assert op_time(1e12, 0, 1e12, 1e9, overhead=0.5) == pytest.approx(1.5)

    def test_pure_overhead_op(self):
        assert op_time(0, 0, 1e12, 1e9, overhead=1e-6) == pytest.approx(1e-6)


class TestAttainableFlops:
    def test_compute_roof(self):
        assert attainable_flops(1000.0, 1e12, 1e9) == pytest.approx(1e12)

    def test_bandwidth_roof(self):
        assert attainable_flops(0.5, 1e12, 1e9) == pytest.approx(0.5e9)

    def test_ridge_point(self):
        # At intensity = peak/bw the two roofs meet.
        peak, bw = 1e12, 1e9
        ridge = peak / bw
        assert attainable_flops(ridge, peak, bw) == pytest.approx(peak)
