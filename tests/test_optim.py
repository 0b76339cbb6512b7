"""Section VI optimization-study tests."""

import pytest

from repro.engine.backend import NumaBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.model import hot_cold_effective_bandwidth
from repro.numa.modes import SNC_FLAT
from repro.optim.hybrid import HybridPlanner
from repro.utils.units import gb_per_s


def numa_aware_snc(model, request=InferenceRequest()):
    """SNC-flat E2E speedup and % latency cut from NUMA-aware allocation."""
    spr = get_platform("spr")
    naive = InferenceSimulator(
        spr, backend=NumaBackend(numa=SNC_FLAT)).run(model, request)
    aware = InferenceSimulator(
        spr, backend=NumaBackend(numa=SNC_FLAT, numa_aware=True)
    ).run(model, request)
    return (naive.e2e_s / aware.e2e_s,
            (1.0 - aware.e2e_s / naive.e2e_s) * 100.0)


class TestNumaAwareSnc:
    def test_numa_awareness_speeds_snc(self):
        e2e_speedup, latency_reduction_pct = numa_aware_snc(
            get_model("llama2-13b"), InferenceRequest(batch_size=8))
        assert e2e_speedup > 1.05
        assert latency_reduction_pct > 0

    def test_consistent_reduction_and_speedup(self):
        e2e_speedup, latency_reduction_pct = numa_aware_snc(
            get_model("opt-6.7b"))
        expected = (1 - 1 / e2e_speedup) * 100
        assert latency_reduction_pct == pytest.approx(expected)


class TestHotCold:
    def test_effective_bandwidth_bounds(self):
        local, remote = gb_per_s(588), gb_per_s(40)
        bw = hot_cold_effective_bandwidth(0.8, local, remote)
        assert remote < bw < local

    def test_all_local_is_local_bw(self):
        assert hot_cold_effective_bandwidth(
            1.0, gb_per_s(588), gb_per_s(40)) == pytest.approx(gb_per_s(588))

    def test_all_remote_is_remote_bw(self):
        assert hot_cold_effective_bandwidth(
            0.0, gb_per_s(588), gb_per_s(40)) == pytest.approx(gb_per_s(40))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            hot_cold_effective_bandwidth(1.5, gb_per_s(1), gb_per_s(1))


class TestHybridPlanner:
    def make_planner(self, gpu_key="a100"):
        return HybridPlanner(get_platform("spr"), get_platform(gpu_key))

    def test_hybrid_beats_pure_offloading(self):
        # Section VI: exploiting CPU compute removes PCIe streaming from
        # the critical path for over-capacity models.
        plan = self.make_planner().plan(get_model("opt-30b"))
        assert plan.speedup_vs_gpu_offload > 1.0

    def test_hybrid_at_least_as_good_as_cpu_only(self):
        plan = self.make_planner().plan(get_model("opt-30b"))
        assert plan.cpu_only_step_s / plan.step_time_s >= 0.99

    def test_best_fraction_in_unit_interval(self):
        plan = self.make_planner("h100").plan(get_model("opt-66b"))
        assert 0.0 <= plan.cpu_layer_fraction <= 1.0

    def test_big_streaming_model_pushes_work_to_cpu(self):
        plan = self.make_planner().plan(get_model("opt-30b"))
        assert plan.cpu_layer_fraction >= 0.5

    def test_requires_cpu_and_gpu(self):
        with pytest.raises(ValueError):
            HybridPlanner(get_platform("spr"), get_platform("icl"))
        with pytest.raises(ValueError):
            HybridPlanner(get_platform("a100"), get_platform("h100"))
