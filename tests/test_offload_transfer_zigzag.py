"""PCIe transfer model and zig-zag scheduling tests."""

import pytest

from repro.hardware.registry import get_platform
from repro.offload.policy import OffloadCalibration
from repro.offload.transfer import TransferModel, transfer_model_for
from repro.offload.zigzag import (
    amortization_factor,
    amortized_transfer_time,
    exposed_transfer_time,
)
from repro.utils.units import GB


class TestTransferModel:
    def test_effective_bw_applies_efficiency(self):
        model = transfer_model_for(get_platform("a100"),
                                   OffloadCalibration(pcie_efficiency=0.5))
        assert model.effective_bw == pytest.approx(64e9 * 0.5)

    def test_pcie5_faster_than_pcie4(self):
        a100 = transfer_model_for(get_platform("a100"))
        h100 = transfer_model_for(get_platform("h100"))
        assert h100.time(10 * GB) < a100.time(10 * GB)

    def test_layer_transfers_add_latency(self):
        model = transfer_model_for(get_platform("a100"))
        assert model.time(GB, layer_transfers=64) > model.time(GB, 1)

    def test_zero_bytes_is_free(self):
        model = transfer_model_for(get_platform("a100"))
        assert model.time(0.0, layer_transfers=10) == 0.0

    def test_cpu_has_no_host_link(self):
        with pytest.raises(ValueError, match="no host link"):
            transfer_model_for(get_platform("spr"))

    def test_negative_bytes_rejected(self):
        model = transfer_model_for(get_platform("a100"))
        with pytest.raises(ValueError):
            model.time(-1.0)


class TestZigzag:
    def test_batch_1_no_amortization(self):
        assert amortization_factor(1) == pytest.approx(1.0)

    def test_factor_grows_with_batch(self):
        factors = [amortization_factor(b) for b in (1, 2, 8, 32)]
        assert factors == sorted(factors)

    def test_amortized_time_scales_inverse(self):
        raw = 2.0
        assert amortized_transfer_time(raw, 1) == pytest.approx(2.0)
        assert amortized_transfer_time(raw, 32) < 1.0

    def test_custom_slope(self):
        calibration = OffloadCalibration(zigzag_amortization_slope=1.0)
        assert amortization_factor(32, calibration) == pytest.approx(32.0)

    def test_exposed_transfer_fully_hidden(self):
        # Transfer smaller than overlappable compute: nothing exposed.
        assert exposed_transfer_time(0.1, 1.0) == 0.0

    def test_exposed_transfer_partial(self):
        calibration = OffloadCalibration(overlap_efficiency=0.5)
        assert exposed_transfer_time(1.0, 1.0, calibration) == pytest.approx(0.5)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            exposed_transfer_time(-1.0, 0.0)
        with pytest.raises(ValueError):
            amortized_transfer_time(-1.0, 1)
