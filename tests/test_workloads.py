"""Workload-generation and serving tests."""

import pytest

from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.workloads.generator import (
    WorkloadSpec,
    batch_analytics_workload,
    chatbot_workload,
    generate_requests,
    total_tokens,
    translation_workload,
)
from repro.workloads.serving import serve


class TestSpecs:
    def test_chatbot_prioritizes_ttft(self):
        assert chatbot_workload().priority_metric == "ttft_s"

    def test_translation_prioritizes_tpot(self):
        assert translation_workload().priority_metric == "tpot_s"

    def test_analytics_prioritizes_throughput(self):
        spec = batch_analytics_workload()
        assert spec.priority_metric == "e2e_throughput"
        assert spec.batch_size >= 16

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            WorkloadSpec("bad", (10, 5), (1, 2), 1, "ttft_s")


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        spec = chatbot_workload()
        a = generate_requests(spec, 10, seed=7)
        b = generate_requests(spec, 10, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        spec = chatbot_workload()
        assert generate_requests(spec, 10, seed=1) != \
            generate_requests(spec, 10, seed=2)

    def test_lengths_within_spec(self):
        spec = chatbot_workload()
        for req in generate_requests(spec, 50, seed=0):
            assert spec.input_len_range[0] <= req.input_len <= \
                spec.input_len_range[1]
            assert spec.output_len_range[0] <= req.output_len <= \
                spec.output_len_range[1]

    def test_count_respected(self):
        assert len(generate_requests(chatbot_workload(), 25)) == 25

    def test_total_tokens(self):
        reqs = [InferenceRequest(batch_size=2, output_len=10),
                InferenceRequest(batch_size=1, output_len=5)]
        assert total_tokens(reqs) == 25


class TestServing:
    def test_serve_aggregates(self):
        requests = generate_requests(chatbot_workload(), 5, seed=3)
        stats = serve(get_platform("spr"), get_model("opt-6.7b"), requests)
        assert stats.requests_served == 5
        assert stats.total_time_s > 0
        assert stats.throughput > 0
        assert stats.mean_ttft_s > 0
        assert stats.p99_ttft_s >= stats.mean_ttft_s * 0.5

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            serve(get_platform("spr"), get_model("opt-6.7b"), [])

    def test_faster_platform_higher_throughput(self):
        requests = generate_requests(chatbot_workload(), 3, seed=0)
        model = get_model("opt-6.7b")
        icl = serve(get_platform("icl"), model, requests)
        spr = serve(get_platform("spr"), model, requests)
        assert spr.throughput > icl.throughput


class TestStreams:
    """Lazy arrival streams: same draws as the list forms, O(1) memory."""

    def test_stream_matches_list_form(self):
        from repro.serving.arrivals import poisson_arrivals
        from repro.workloads.streams import stream_workload

        spec = chatbot_workload()
        assert list(stream_workload(spec, 2.0, count=50, seed=4)) == \
            poisson_arrivals(2.0, 50, spec, seed=4)

    def test_bursty_stream_matches_list_form(self):
        from repro.serving.arrivals import bursty_arrivals
        from repro.workloads.streams import stream_workload

        spec = chatbot_workload()
        assert list(stream_workload(spec, 0.5, count=30,
                                    burst_rate_per_s=4.0, seed=2)) == \
            bursty_arrivals(0.5, 4.0, 30, spec, seed=2)

    def test_duration_bound_caps_the_stream(self):
        from repro.workloads.streams import stream_workload

        requests = list(stream_workload(None, 2.0, duration_s=30.0, seed=1))
        assert requests
        assert all(r.arrival_s <= 30.0 for r in requests)
        # Both bounds together: whichever bites first ends the stream.
        capped = list(stream_workload(None, 2.0, count=5, duration_s=30.0,
                                      seed=1))
        assert capped == requests[:5]

    def test_unbounded_stream_rejected(self):
        from repro.workloads.streams import stream_workload

        with pytest.raises(ValueError, match="bound"):
            stream_workload(None, 2.0)
