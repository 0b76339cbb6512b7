"""Memory-tier and memory-system tests."""

import pytest

from repro.hardware.memory import (
    MemorySystem,
    MemoryTechnology,
    MemoryTier,
)
from repro.utils.units import GB, gb_per_s


def hbm(capacity_gb=64, bw=588.0):
    return MemoryTier("HBM", MemoryTechnology.HBM_FLAT,
                      capacity_bytes=capacity_gb * GB,
                      sustained_bw=gb_per_s(bw))


def ddr(capacity_gb=256, bw=233.8):
    return MemoryTier("DDR5", MemoryTechnology.DDR5,
                      capacity_bytes=capacity_gb * GB,
                      sustained_bw=gb_per_s(bw))


class TestMemoryTier:
    def test_default_latency_by_technology(self):
        assert hbm().latency_ns > ddr().latency_ns  # SPR HBM is slower to load

    def test_explicit_latency_respected(self):
        tier = MemoryTier("X", MemoryTechnology.DDR5, 1 * GB,
                          gb_per_s(100), latency_ns=42.0)
        assert tier.latency_ns == 42.0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MemoryTier("X", MemoryTechnology.DDR5, 0, gb_per_s(100))

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            MemoryTier("X", MemoryTechnology.DDR5, GB, 0)


class TestMemorySystem:
    def test_total_capacity(self):
        system = MemorySystem([hbm(64), ddr(256)])
        assert system.total_capacity == pytest.approx(320 * GB)

    def test_fastest_is_hbm(self):
        system = MemorySystem([ddr(), hbm()])
        assert system.fastest.name == "HBM"

    def test_tier_lookup(self):
        system = MemorySystem([hbm(), ddr()])
        assert system.tier("DDR5").technology is MemoryTechnology.DDR5

    def test_tier_lookup_missing(self):
        with pytest.raises(KeyError):
            MemorySystem([hbm()]).tier("DDR5")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MemorySystem([])

    def test_blend_within_fast_tier_is_fast_bw(self):
        system = MemorySystem([hbm(64), ddr(256)])
        assert system.blended_bandwidth(10 * GB) == pytest.approx(gb_per_s(588.0))

    def test_blend_spills_to_ddr(self):
        system = MemorySystem([hbm(64), ddr(256)])
        blended = system.blended_bandwidth(128 * GB)
        assert gb_per_s(233.8) < blended < gb_per_s(588.0)

    def test_blend_is_harmonic(self):
        system = MemorySystem([hbm(64), ddr(256)])
        footprint = 128 * GB
        expected_time = 64 * GB / gb_per_s(588.0) + 64 * GB / gb_per_s(233.8)
        assert system.blended_bandwidth(footprint) == pytest.approx(
            footprint / expected_time)

    def test_blend_monotonically_decreases_with_footprint(self):
        system = MemorySystem([hbm(64), ddr(256)])
        values = [system.blended_bandwidth(GB * g) for g in (32, 64, 96, 200)]
        assert values == sorted(values, reverse=True)

    def test_overflow_beyond_all_tiers_uses_slowest(self):
        system = MemorySystem([hbm(64), ddr(64)])
        blended = system.blended_bandwidth(256 * GB)
        assert blended < gb_per_s(588.0)
        assert blended > 0

    def test_rejects_zero_footprint(self):
        with pytest.raises(ValueError):
            MemorySystem([hbm()]).blended_bandwidth(0)
