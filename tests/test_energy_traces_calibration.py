"""Tests for the energy model, workload traces, and calibration framework."""

import pytest

from repro.analysis.energy import (
    request_energy_joules,
    tdp,
    tokens_per_joule,
)
from repro.calibration.targets import all_targets, check_all_targets
from repro.core.runner import run_inference
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import poisson_arrivals
from repro.workloads.generator import chatbot_workload


class TestEnergy:
    def test_tdp_lookup(self):
        assert tdp("SPR-Max-9468") == 350.0

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            tdp("M4-Max")

    def test_energy_is_tdp_times_time(self):
        result = run_inference(get_platform("spr"), get_model("opt-13b"))
        assert request_energy_joules(result) == pytest.approx(
            350.0 * result.e2e_s)

    def test_offloaded_run_charges_host_power(self):
        request = InferenceRequest(batch_size=1)
        result = run_inference(get_platform("a100"), get_model("opt-30b"),
                               request)
        assert request_energy_joules(result) == pytest.approx(
            (250.0 + 150.0) * result.e2e_s)

    def test_gpu_more_efficient_in_memory(self):
        request = InferenceRequest(batch_size=1)
        cpu = run_inference(get_platform("spr"), get_model("opt-13b"), request)
        gpu = run_inference(get_platform("h100"), get_model("opt-13b"), request)
        assert tokens_per_joule(gpu) > tokens_per_joule(cpu)

    def test_cpu_more_efficient_offloaded(self):
        request = InferenceRequest(batch_size=1)
        cpu = run_inference(get_platform("spr"), get_model("opt-66b"), request)
        gpu = run_inference(get_platform("h100"), get_model("opt-66b"), request)
        assert tokens_per_joule(cpu) > tokens_per_joule(gpu)


class TestTraces:
    def test_synthesize_deterministic(self):
        a = poisson_arrivals(2.0, 10, chatbot_workload(), seed=3)
        b = poisson_arrivals(2.0, 10, chatbot_workload(), seed=3)
        assert a == b

    def test_trace_replays_into_scheduler(self):
        from repro.serving.scheduler import BatchingSimulator
        requests = poisson_arrivals(2.0, 6, chatbot_workload(), seed=5)
        simulator = BatchingSimulator(get_platform("spr"),
                                      get_model("opt-1.3b"), max_batch=4)
        report = simulator.run_continuous(requests)
        assert len(report.completed) == 6


class TestCalibrationFramework:
    def test_registry_covers_design_anchors(self):
        ids = {target.target_id for target in all_targets()}
        assert {"spr_icl_e2e", "cpu_opt30b", "crossover_70b",
                "opt175b_gb"} <= ids
        assert len(ids) == len(all_targets())  # unique ids

    def test_all_targets_in_band(self):
        results = check_all_targets()
        out = [r for r in results if not r.in_band]
        assert not out, "; ".join(
            f"{r.target.target_id}: measured {r.measured:.2f} outside "
            f"{r.target.band}" for r in out)

    def test_bands_contain_paper_values(self):
        for target in all_targets():
            low, high = target.band
            assert low <= target.paper_value <= high, target.target_id
