"""Interconnect tests."""

import dataclasses

import pytest

from repro.hardware.interconnect import (
    Interconnect,
    nvlink_c2c,
    pcie_gen4_x16,
    pcie_gen5_x16,
    upi_link,
)
from repro.utils.units import GB, gb_per_s


class TestInterconnect:
    def test_effective_bw(self):
        link = Interconnect("test", gb_per_s(100), efficiency=0.5)
        assert link.effective_bw == pytest.approx(gb_per_s(50))

    def test_transfer_time_includes_latency(self):
        link = Interconnect("test", gb_per_s(100), efficiency=1.0,
                            latency_s=1e-3)
        t = link.transfer_time(GB)
        assert t == pytest.approx(1e-3 + 0.01)

    def test_zero_bytes_is_free(self):
        link = Interconnect("test", gb_per_s(100))
        assert link.transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Interconnect("test", gb_per_s(100)).transfer_time(-1)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            Interconnect("test", gb_per_s(100), efficiency=0.0)
        with pytest.raises(ValueError):
            Interconnect("test", gb_per_s(100), efficiency=1.2)


class TestPresets:
    def test_pcie4_nominal_matches_table2(self):
        assert pcie_gen4_x16().nominal_bw == pytest.approx(gb_per_s(64.0))

    def test_pcie5_nominal_matches_table2(self):
        assert pcie_gen5_x16().nominal_bw == pytest.approx(gb_per_s(128.0))

    def test_pcie5_faster_than_pcie4(self):
        assert pcie_gen5_x16().effective_bw > pcie_gen4_x16().effective_bw

    def test_upi_much_slower_than_hbm(self):
        assert upi_link().effective_bw < gb_per_s(100)

    def test_nvlink_dwarfs_pcie(self):
        assert nvlink_c2c().nominal_bw > 5 * pcie_gen5_x16().nominal_bw

    def test_custom_efficiency(self):
        custom = dataclasses.replace(pcie_gen4_x16(), efficiency=0.9)
        assert custom.effective_bw == pytest.approx(gb_per_s(64.0 * 0.9))
