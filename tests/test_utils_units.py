"""Unit-constant and conversion tests."""

import pytest

from repro.utils.units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    MS,
    TB,
    TFLOPS,
    US,
    bytes_to_gb,
    gb_per_s,
)


class TestConstants:
    def test_decimal_prefixes_scale_by_1000(self):
        assert MB == 1000 * KB
        assert GB == 1000 * MB
        assert TB == 1000 * GB

    def test_binary_prefixes_scale_by_1024(self):
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB

    def test_decimal_and_binary_differ(self):
        assert GIB > GB
        assert GIB / GB == pytest.approx(1.073741824)

    def test_time_units(self):
        assert MS == pytest.approx(1e-3)
        assert US == pytest.approx(1e-6)

    def test_tflops(self):
        assert TFLOPS == 1e12


class TestConversions:
    def test_gb_per_s(self):
        assert gb_per_s(588.0) == pytest.approx(588e9)

    def test_bytes_to_gb_roundtrip(self):
        assert bytes_to_gb(gb_per_s(1.0)) == pytest.approx(1.0)

    def test_zero_is_zero(self):
        assert bytes_to_gb(0) == 0.0
