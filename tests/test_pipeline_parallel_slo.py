"""Pipeline-parallel and SLO tests."""

import pytest

from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.parallel.pipeline_parallel import (
    PPConfig,
    PipelineParallelSimulator,
)
from repro.serving.arrivals import poisson_arrivals
from repro.serving.scheduler import BatchingSimulator
from repro.serving.slo import SLO, attainment, goodput, max_sustainable_rate


class TestPipelineParallel:
    def setup_method(self):
        self.spr = get_platform("spr")
        self.model = get_model("llama2-13b")
        self.request = InferenceRequest(batch_size=8)

    def test_no_latency_gain_for_resident_model(self):
        estimate = PipelineParallelSimulator(self.spr).estimate(
            self.model, self.request)
        assert estimate.token_latency_s / estimate.single_socket_step_s == \
            pytest.approx(1.0, abs=0.1)

    def test_throughput_near_2x(self):
        estimate = PipelineParallelSimulator(self.spr).estimate(
            self.model, self.request)
        assert 1.8 < estimate.throughput_gain < 2.1

    def test_spilled_model_superlinear(self):
        # Sharding OPT-66B un-spills each socket's HBM.
        estimate = PipelineParallelSimulator(self.spr).estimate(
            get_model("opt-66b"), InferenceRequest(batch_size=1))
        assert estimate.throughput_gain > 2.5
        assert estimate.token_latency_s < estimate.single_socket_step_s

    def test_stage_time_below_single_socket(self):
        estimate = PipelineParallelSimulator(self.spr).estimate(
            self.model, self.request)
        assert estimate.stage_time_s < estimate.single_socket_step_s

    def test_stages_beyond_sockets_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            PipelineParallelSimulator(self.spr, PPConfig(stages=3))

    def test_gpu_rejected(self):
        with pytest.raises(ValueError, match="not a CPU"):
            PipelineParallelSimulator(get_platform("a100"))


class TestSLO:
    @pytest.fixture(scope="class")
    def simulator(self):
        return BatchingSimulator(get_platform("spr"),
                                 get_model("llama2-7b"), max_batch=8)

    def test_attainment_bounds(self, simulator):
        arrivals = poisson_arrivals(1.0, 12, seed=2)
        report = simulator.run_continuous(arrivals)
        slo = SLO(ttft_s=100.0, tpot_s=10.0)  # trivially met
        assert attainment(report, arrivals, slo) == 1.0
        strict = SLO(ttft_s=1e-6, tpot_s=1e-6)
        assert attainment(report, arrivals, strict) == 0.0

    def test_goodput_bounded_by_throughput(self, simulator):
        arrivals = poisson_arrivals(1.0, 12, seed=2)
        report = simulator.run_continuous(arrivals)
        slo = SLO(ttft_s=1.0, tpot_s=0.06)
        assert goodput(report, arrivals, slo) <= report.throughput + 1e-9

    def test_max_rate_monotone_in_slo(self, simulator):
        lenient = max_sustainable_rate(simulator, SLO(ttft_s=5.0, tpot_s=0.2))
        strict = max_sustainable_rate(simulator,
                                      SLO(ttft_s=0.2, tpot_s=0.04))
        assert lenient >= strict

    def test_impossible_slo_returns_zero(self, simulator):
        assert max_sustainable_rate(
            simulator, SLO(ttft_s=1e-6, tpot_s=1e-6)) == 0.0

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO(ttft_s=0.0)
