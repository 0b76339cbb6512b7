"""Serving-substrate tests: arrivals and batching policies."""

import pytest

from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import poisson_arrivals
from repro.serving.scheduler import BatchingSimulator
from repro.workloads.generator import chatbot_workload


@pytest.fixture(scope="module")
def simulator():
    return BatchingSimulator(get_platform("spr"), get_model("llama2-7b"),
                             max_batch=8)


@pytest.fixture(scope="module")
def arrivals():
    return poisson_arrivals(rate_per_s=2.0, count=16, seed=3)


class TestArrivals:
    def test_deterministic(self):
        a = poisson_arrivals(1.0, 10, seed=5)
        b = poisson_arrivals(1.0, 10, seed=5)
        assert a == b

    def test_sorted_by_time(self):
        stream = poisson_arrivals(1.0, 20, seed=0)
        times = [r.arrival_s for r in stream]
        assert times == sorted(times)

    def test_rate_controls_density(self):
        slow = poisson_arrivals(0.5, 50, seed=1)[-1].arrival_s
        fast = poisson_arrivals(5.0, 50, seed=1)[-1].arrival_s
        assert fast < slow

    def test_lengths_within_spec(self):
        spec = chatbot_workload()
        for request in poisson_arrivals(1.0, 30, spec, seed=2):
            assert spec.input_len_range[0] <= request.input_len <= \
                spec.input_len_range[1]

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10)


class TestStaticBatching:
    def test_all_requests_complete(self, simulator, arrivals):
        report = simulator.run_static(arrivals)
        assert len(report.completed) == len(arrivals)
        assert {r.request_id for r in report.completed} == \
            {r.request_id for r in arrivals}

    def test_lifecycle_ordering(self, simulator, arrivals):
        report = simulator.run_static(arrivals)
        for record in report.completed:
            assert record.arrival_s <= record.start_s
            assert record.start_s < record.first_token_s
            assert record.first_token_s <= record.finish_s

    def test_token_accounting(self, simulator, arrivals):
        report = simulator.run_static(arrivals)
        assert report.generated_tokens == sum(
            r.output_len for r in arrivals)

    def test_batch_cap_respected_implicitly(self, simulator):
        # All requests arrive at ~t=0 with max_batch 8 and 16 requests:
        # two serving rounds, so the later batch's queue delay is large.
        burst = poisson_arrivals(rate_per_s=1000.0, count=16, seed=0)
        report = simulator.run_static(burst)
        delays = sorted(r.queue_delay_s for r in report.completed)
        assert delays[-1] > delays[0] + 0.1


class TestContinuousBatching:
    def test_all_requests_complete(self, simulator, arrivals):
        report = simulator.run_continuous(arrivals)
        assert len(report.completed) == len(arrivals)

    def test_beats_static_on_ttft(self, simulator, arrivals):
        static = simulator.run_static(arrivals)
        continuous = simulator.run_continuous(arrivals)
        assert continuous.mean_ttft_s < static.mean_ttft_s

    def test_beats_static_on_throughput_under_load(self, simulator):
        heavy = poisson_arrivals(rate_per_s=4.0, count=24, seed=7)
        static = simulator.run_static(heavy)
        continuous = simulator.run_continuous(heavy)
        assert continuous.throughput > static.throughput

    def test_token_accounting(self, simulator, arrivals):
        report = simulator.run_continuous(arrivals)
        assert report.generated_tokens == sum(
            r.output_len for r in arrivals)

    def test_percentiles_consistent(self, simulator, arrivals):
        report = simulator.run_continuous(arrivals)
        assert report.p95_ttft_s >= report.mean_ttft_s * 0.3

    def test_deterministic(self, simulator, arrivals):
        a = simulator.run_continuous(arrivals)
        b = simulator.run_continuous(arrivals)
        assert a.makespan_s == b.makespan_s


class TestValidation:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            BatchingSimulator(get_platform("spr"), get_model("opt-1.3b"),
                              max_batch=0)

    @pytest.mark.parametrize("runner", ["run_static", "run_continuous",
                                        "run_chunked"])
    def test_every_policy_refuses_an_empty_stream(self, simulator, runner):
        with pytest.raises(ValueError, match="^no arrivals to serve$"):
            getattr(simulator, runner)([])
