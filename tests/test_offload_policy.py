"""Offloading-policy tests."""

import pytest

from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.memory import weight_bytes
from repro.models.registry import get_model
from repro.offload.engine import make_placement
from repro.offload.policy import OffloadCalibration


def gpu(key):
    return InferenceSimulator(get_platform(key))


class TestNeedsOffloading:
    """A GPU run offloads exactly when ``InferenceSimulator.fits`` is False."""

    def test_small_model_fits_a100(self):
        assert gpu("a100").fits(get_model("opt-13b"), InferenceRequest())

    def test_opt30b_overflows_a100(self):
        # Paper: "the A100 GPU needs to offload model weights and
        # activations" for OPT-30B.
        assert not gpu("a100").fits(get_model("opt-30b"), InferenceRequest())

    def test_opt30b_fits_h100(self):
        assert gpu("h100").fits(get_model("opt-30b"), InferenceRequest())

    def test_opt66b_overflows_h100(self):
        assert not gpu("h100").fits(get_model("opt-66b"), InferenceRequest())

    def test_kv_growth_can_force_offloading(self):
        # OPT-13B fits at batch 1 but long-context large-batch KV pushes
        # the footprint past the A100's usable 40 GB.
        model = get_model("opt-13b")
        assert gpu("a100").fits(model, InferenceRequest(batch_size=1))
        assert not gpu("a100").fits(
            model, InferenceRequest(batch_size=16, input_len=1024))


class TestMakePlacement:
    def test_weights_conserved(self):
        placement = make_placement(get_model("opt-30b"), InferenceRequest(),
                                   get_platform("a100"))
        assert (placement.resident_weight_bytes
                + placement.streamed_weight_bytes) == pytest.approx(
            weight_bytes(get_model("opt-30b")))

    def test_resident_bounded_by_budget(self):
        calibration = OffloadCalibration()
        gpu = get_platform("a100")
        placement = make_placement(get_model("opt-66b"), InferenceRequest(),
                                   gpu, calibration)
        assert placement.resident_weight_bytes <= \
            gpu.memory_capacity * calibration.weight_residency_fraction

    def test_small_kv_stays_on_gpu(self):
        placement = make_placement(get_model("opt-30b"),
                                   InferenceRequest(batch_size=1),
                                   get_platform("a100"))
        assert placement.kv_on_gpu

    def test_huge_kv_moves_to_host(self):
        placement = make_placement(get_model("opt-30b"),
                                   InferenceRequest(batch_size=32,
                                                    input_len=1024),
                                   get_platform("a100"))
        assert not placement.kv_on_gpu

    def test_kv_on_gpu_shrinks_weight_budget(self):
        gpu = get_platform("a100")
        small_kv = make_placement(get_model("opt-66b"),
                                  InferenceRequest(batch_size=1), gpu)
        big_kv = make_placement(get_model("opt-66b"),
                                InferenceRequest(batch_size=8), gpu)
        assert small_kv.kv_on_gpu and big_kv.kv_on_gpu
        assert big_kv.resident_weight_bytes < small_kv.resident_weight_bytes

    def test_resident_fraction(self):
        placement = make_placement(get_model("opt-30b"), InferenceRequest(),
                                   get_platform("a100"))
        assert placement.resident_weight_bytes > 0
        assert placement.streamed_weight_bytes > 0


class TestCalibrationValidation:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            OffloadCalibration(weight_residency_fraction=0.0)
        with pytest.raises(ValueError):
            OffloadCalibration(pcie_efficiency=1.5)

    def test_rejects_bad_host_bw(self):
        with pytest.raises(ValueError):
            OffloadCalibration(host_attention_bw=0.0)
