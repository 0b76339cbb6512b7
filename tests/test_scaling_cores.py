"""Core-count scaling tests: the core count of a placement."""

import pytest

from repro.hardware.registry import get_platform
from repro.numa.model import NumaCalibration, NumaModel
from repro.numa.modes import QUAD_FLAT
from repro.scaling.cores import EVALUATED_CORE_COUNTS


def scaling(cores, **kwargs):
    return NumaModel(get_platform("spr"), QUAD_FLAT, cores=cores, **kwargs)


class TestComputeFactor:
    def test_reference_cores_is_unity(self):
        assert scaling(48).compute_factor == pytest.approx(1.0)

    def test_fewer_cores_scale_down(self):
        assert scaling(12).compute_factor < 0.5

    def test_more_cores_scale_up_sublinearly(self):
        factor = scaling(96).compute_factor
        assert 1.0 < factor < 2.0

    def test_prefill_speedup_12_to_48_near_paper(self):
        # Paper: 65.9% prefill latency reduction = 2.93x speedup.
        speedup = scaling(48).compute_factor / scaling(12).compute_factor
        assert speedup == pytest.approx(2.93, rel=0.05)

    def test_monotone_within_socket(self):
        factors = [scaling(n).compute_factor for n in (12, 24, 36, 48)]
        assert factors == sorted(factors)


class TestBandwidthFactor:
    def test_reference_cores_is_unity(self):
        assert scaling(48).bandwidth_factor == pytest.approx(1.0)

    def test_decode_gain_12_to_48_near_paper(self):
        # Paper: 54.6% decode latency reduction = 2.2x; the bandwidth leg
        # contributes the memory-bound share of that.
        ratio = scaling(48).bandwidth_factor / scaling(12).bandwidth_factor
        assert 1.8 < ratio < 2.6

    def test_96_cores_worse_than_48(self):
        # Key Finding #3: UPI traffic caps 2-socket bandwidth below one
        # saturated socket.
        assert scaling(96).bandwidth_factor < scaling(48).bandwidth_factor

    def test_96_cores_better_than_12(self):
        assert scaling(96).bandwidth_factor > scaling(12).bandwidth_factor


class TestSocketSpanning:
    def test_48_within_socket(self):
        model = scaling(48)
        assert not model.spans_sockets
        assert model.upi_traffic_fraction() == 0.0

    def test_96_spans(self):
        model = scaling(96)
        assert model.spans_sockets
        assert model.upi_traffic_fraction() > 0.0

    def test_rejects_more_than_server_cores(self):
        with pytest.raises(ValueError, match="has 96 cores"):
            scaling(128)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            scaling(0)

    def test_gpu_rejected(self):
        with pytest.raises(ValueError, match="applies to CPUs"):
            NumaModel(get_platform("h100"), QUAD_FLAT, cores=48)


class TestCalibration:
    def test_evaluated_core_counts_match_paper(self):
        assert EVALUATED_CORE_COUNTS == (12, 24, 48, 96)

    def test_rejects_bad_overhead(self):
        with pytest.raises(ValueError):
            NumaCalibration(parallel_overhead=0.0)

    def test_rejects_bad_remote_fraction(self):
        with pytest.raises(ValueError):
            NumaCalibration(numa_aware_remote_fraction=1.5)

    def test_custom_calibration_applies(self):
        heavy = NumaCalibration(parallel_overhead=0.1)
        light_factor = scaling(12).compute_factor
        heavy_factor = scaling(12, calibration=heavy).compute_factor
        # Heavier parallel overhead *raises* the relative efficiency of few
        # cores vs the 48-core reference (reference degrades more).
        assert heavy_factor > light_factor
