"""Edge-case and failure-injection tests across the stack.

These exercise the corners the happy-path tests skip: minimal shapes,
boundary batch/sequence values, degenerate configurations, and the error
paths that guard against physically meaningless simulations.
"""

import pytest

from repro.core.runner import run_inference
from repro.engine.backend import NumaBackend
from repro.engine.inference import (
    InferenceSimulator,
    MemoryCapacityError,
    simulate,
)
from repro.engine.request import InferenceRequest
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.builder import build_model
from repro.models.opgraph import decode_step_ops, prefill_ops
from repro.models.registry import get_model
from repro.numa.modes import HBM_ONLY_QUAD
from repro.offload.engine import OffloadSimulator
from repro.offload.policy import OffloadCalibration, make_placement


class TestMinimalShapes:
    def test_single_token_prompt(self):
        result = simulate(get_platform("spr"), get_model("opt-1.3b"),
                          InferenceRequest(input_len=1, output_len=2))
        assert result.e2e_s > 0

    def test_single_token_everything(self):
        result = simulate(get_platform("spr"), get_model("opt-1.3b"),
                          InferenceRequest(batch_size=1, input_len=1,
                                           output_len=1))
        assert result.tpot_s == 0.0
        assert result.decode_throughput == 0.0

    def test_tiny_custom_model(self):
        tiny = build_model("Tiny", n_layers=1, d_model=64, n_heads=1)
        result = simulate(get_platform("spr"), tiny,
                          InferenceRequest(output_len=2))
        assert result.e2e_s > 0

    def test_giant_batch(self):
        result = simulate(get_platform("spr"), get_model("opt-1.3b"),
                          InferenceRequest(batch_size=256, output_len=2))
        assert result.e2e_throughput > 0

    def test_op_graphs_at_minimum_dims(self):
        model = get_model("opt-1.3b")
        assert prefill_ops(model, 1, 1)
        assert decode_step_ops(model, 1, 1)


class TestHbmOnlyMode:
    def test_small_model_runs(self):
        result = simulate(get_platform("spr"), get_model("llama2-13b"),
                          backend=NumaBackend(numa=HBM_ONLY_QUAD))
        assert result.e2e_s > 0

    def test_hbm_only_faster_than_flat_for_resident_model(self):
        # No DDR blending and no cache overhead: pure HBM bandwidth.
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        hbm_only = simulate(spr, model,
                            backend=NumaBackend(numa=HBM_ONLY_QUAD))
        flat = simulate(spr, model)
        assert hbm_only.e2e_s <= flat.e2e_s * 1.01

    def test_oversize_model_rejected(self):
        with pytest.raises(MemoryCapacityError):
            simulate(get_platform("spr"), get_model("opt-66b"),
                     backend=NumaBackend(numa=HBM_ONLY_QUAD))


class TestOffloadEdges:
    def test_zero_streamed_weights_placement(self):
        # A tiny model under a generous budget: everything resident.
        placement = make_placement(
            get_model("opt-1.3b"), InferenceRequest(), get_platform("h100"),
            OffloadCalibration(weight_residency_fraction=0.9))
        assert placement.streamed_weight_bytes == 0.0
        assert placement.resident_weight_bytes > 0.0

    def test_offload_engine_with_fully_resident_weights(self):
        # Degenerate offloading (nothing streams) must still work and be
        # cheap: only overheads remain on top of in-memory compute.
        result = OffloadSimulator(
            get_platform("h100"),
            OffloadCalibration(weight_residency_fraction=0.9)).run(
            get_model("opt-1.3b"), InferenceRequest(output_len=4))
        assert result.loading_share < 0.2

    def test_single_output_token_offloaded(self):
        result = OffloadSimulator(get_platform("a100")).run(
            get_model("opt-30b"), InferenceRequest(output_len=1))
        assert result.decode_time_s == 0.0
        assert result.tpot_s == 0.0

    def test_minimum_residency(self):
        placement = make_placement(
            get_model("opt-66b"), InferenceRequest(batch_size=32,
                                                   input_len=1024),
            get_platform("a100"))
        assert placement.resident_weight_bytes >= 0.0
        assert (placement.resident_weight_bytes
                + placement.streamed_weight_bytes) > 0


class TestDispatchEdges:
    def test_gpu_exactly_at_headroom_boundary(self):
        # OPT-13B at growing batch crosses the A100 fit boundary; both
        # sides of the boundary must return results, never crash.
        model = get_model("opt-13b")
        a100 = get_platform("a100")
        for batch in (1, 8, 16, 32):
            request = InferenceRequest(batch_size=batch, input_len=1024)
            result = run_inference(a100, model, request)
            assert result.e2e_s > 0

    def test_int8_cpu_path(self):
        # The whole pipeline at INT8 dtype (AMX INT8 = 2x BF16 peak).
        request = InferenceRequest(dtype=DType.INT8, output_len=4)
        result = simulate(get_platform("spr"), get_model("opt-6.7b"),
                          request)
        bf16 = simulate(get_platform("spr"), get_model("opt-6.7b"),
                        InferenceRequest(output_len=4))
        assert result.tpot_s < bf16.tpot_s  # half the bytes

    def test_fp32_runs_on_vector_units(self):
        request = InferenceRequest(dtype=DType.FP32, output_len=2)
        result = simulate(get_platform("spr"), get_model("opt-1.3b"),
                          request)
        assert result.e2e_s > 0

    def test_cores_below_snc_granularity(self):
        result = simulate(get_platform("spr"), get_model("opt-1.3b"),
                          cores=1)
        assert result.e2e_s > 0


class TestSimulatorInternals:
    def test_fits_matches_run_behaviour(self):
        spr = InferenceSimulator(get_platform("spr"))
        model = get_model("opt-66b")
        request = InferenceRequest(batch_size=1)
        assert spr.fits(model, request)
        spr.run(model, request)  # must not raise

    def test_memory_capacity_spans_sockets_at_96_cores(self):
        single = InferenceSimulator(get_platform("spr"), cores=48)
        double = InferenceSimulator(get_platform("spr"), cores=96)
        assert double.memory_capacity() == pytest.approx(
            2 * single.memory_capacity())

    def test_effective_bandwidth_positive_for_any_footprint(self):
        simulator = InferenceSimulator(get_platform("spr"))
        for footprint in (1e6, 1e9, 100e9, 400e9):
            assert simulator.effective_bandwidth(footprint) > 0
