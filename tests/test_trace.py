"""Tracing subsystem tests: data model, instrumentation, export, analysis.

The load-bearing guarantee is that spans are the metrics: a traced
``run_continuous`` must reproduce the scheduler's own ``queue_delay_s``
/ ``ttft_s`` / ``e2e_s`` accounting from span durations alone, to 1e-9.
Everything else (Chrome export validity, nesting, ClusterEvent render
parity, noop transparency) keeps the exporters and the backward-compat
surface honest.
"""

import json
import math

import pytest

from repro.cluster import (
    ClusterEvent,
    ClusterSimulator,
    LeastOutstandingTokensRouter,
    NodeFailure,
    ReplicaNode,
    RoundRobinRouter,
)
from repro.cluster.events import FAILURE, ONLINE, SCALE_UP
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import ArrivingRequest, poisson_arrivals
from repro.serving.scheduler import BatchingSimulator
from repro.trace import (
    CLUSTER_TRACK,
    ENGINE_TRACK,
    NOOP_TRACER,
    NoopTracer,
    RecordingTracer,
    Span,
    Trace,
    ascii_timeline,
    batch_occupancy_histogram,
    replica_track,
    replica_utilization_timeline,
    request_attribution,
    request_track,
    to_chrome_trace,
    write_chrome_trace,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def simulator():
    return BatchingSimulator(get_platform("spr"), get_model("llama2-7b"),
                             max_batch=4)


@pytest.fixture(scope="module")
def arrivals():
    return poisson_arrivals(rate_per_s=2.0, count=12, seed=11)


@pytest.fixture(scope="module")
def traced_run(simulator, arrivals):
    tracer = RecordingTracer()
    report = simulator.run_continuous(arrivals, tracer=tracer)
    return tracer.trace, report


class TestDataModel:
    def test_span_duration(self):
        span = Span("request/0", "prefill", 1.0, 1.5)
        assert span.duration_s == 0.5

    def test_span_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            Span("request/0", "prefill", 2.0, 1.0)

    def test_track_helpers(self):
        assert request_track(7) == "request/7"
        assert replica_track("spr-0") == "replica/spr-0"

    def test_tracks_sort_request_ids_numerically(self):
        trace = Trace()
        for rid in (10, 2, 1):
            trace.spans.append(Span(request_track(rid), "request", 0.0, 1.0))
        trace.spans.append(Span(replica_track("a"), "decode", 0.0, 1.0))
        assert trace.tracks() == ["replica/a", "request/1", "request/2",
                                  "request/10"]

    def test_spans_on_orders_parents_first(self):
        trace = Trace()
        child = Span("request/0", "queue_wait", 0.0, 0.2)
        root = Span("request/0", "request", 0.0, 1.0)
        trace.spans.extend([child, root])
        assert trace.spans_on("request/0")[0] is root
        assert trace.root_span("request/0") is root

    def test_end_s_and_len_empty(self):
        trace = Trace()
        assert trace.end_s == 0.0
        assert len(trace) == 0


class TestTracers:
    def test_noop_is_disabled_and_silent(self):
        tracer = NoopTracer()
        assert not tracer.enabled
        tracer.span("t", "n", 0.0, 1.0)
        tracer.instant("t", "n", 0.5)
        tracer.counter("t", "n", 0.5, 1.0)
        # Nothing to inspect: the noop has no storage at all.
        assert not hasattr(tracer, "trace")

    def test_recording_captures_everything(self):
        tracer = RecordingTracer()
        assert tracer.enabled
        tracer.span("t", "n", 0.0, 1.0, args={"k": 1})
        tracer.instant("t", "e", 0.5)
        tracer.counter("t", "c", 0.5, 2.0)
        assert len(tracer.trace) == 3
        assert tracer.trace.spans[0].args == {"k": 1}

    def test_noop_does_not_change_results(self, simulator, arrivals):
        untraced = simulator.run_continuous(arrivals)
        traced = simulator.run_continuous(arrivals, tracer=NOOP_TRACER)
        assert untraced.makespan_s == traced.makespan_s
        assert [r.finish_s for r in untraced.completed] == \
               [r.finish_s for r in traced.completed]

    def test_recording_does_not_change_results(self, simulator, arrivals,
                                               traced_run):
        _, traced_report = traced_run
        untraced = simulator.run_continuous(arrivals)
        assert untraced.makespan_s == traced_report.makespan_s


class TestContinuousAttribution:
    """Span durations must reproduce the scheduler's own metrics."""

    def test_every_request_has_a_root_span(self, traced_run):
        trace, report = traced_run
        assert trace.request_ids() == sorted(
            r.request_id for r in report.completed)

    def test_queue_span_matches_queue_delay(self, traced_run):
        trace, report = traced_run
        attribution = request_attribution(trace)
        for record in report.completed:
            assert math.isclose(attribution[record.request_id].queue_s,
                                record.queue_delay_s, abs_tol=TOL)

    def test_queue_plus_prefill_matches_ttft(self, traced_run):
        trace, report = traced_run
        attribution = request_attribution(trace)
        for record in report.completed:
            a = attribution[record.request_id]
            assert math.isclose(a.queue_s + a.prefill_s, record.ttft_s,
                                abs_tol=TOL)

    def test_components_tile_e2e(self, traced_run):
        trace, report = traced_run
        attribution = request_attribution(trace)
        for record in report.completed:
            a = attribution[record.request_id]
            assert math.isclose(a.attributed_s, record.e2e_s, abs_tol=TOL)
            assert math.isclose(a.total_s, record.e2e_s, abs_tol=TOL)

    @pytest.mark.parametrize("policy, chunk_tokens", [
        ("static", 256), ("chunked", 64), ("chunked", 256)],
        ids=["static", "chunked-64", "chunked-256"])
    def test_static_and_chunked_components_tile_e2e(self, simulator,
                                                    arrivals, policy,
                                                    chunk_tokens):
        # A burst above max_batch with single-token outputs mixed in:
        # padded cohorts, chunks interleaved with decode, and requests
        # that retire a boundary after their only token.
        burst = [ArrivingRequest(100 + i, 1.0, 300, 1 if i % 2 else 20)
                 for i in range(6)]
        tracer = RecordingTracer()
        node = ReplicaNode("single", simulator.platform, simulator.model,
                           simulator.max_batch, policy=policy,
                           chunk_tokens=chunk_tokens, tracer=tracer)
        report = node.serve(arrivals + burst)
        attribution = request_attribution(tracer.trace)
        assert set(attribution) == {r.request_id for r in report.completed}
        for record in report.completed:
            a = attribution[record.request_id]
            assert math.isclose(a.queue_s, record.queue_delay_s, abs_tol=TOL)
            assert math.isclose(a.queue_s + a.prefill_s, record.ttft_s,
                                abs_tol=TOL)
            assert math.isclose(a.attributed_s, record.e2e_s, abs_tol=TOL)
            assert math.isclose(a.total_s, record.e2e_s, abs_tol=TOL)

    def test_children_nest_inside_root(self, traced_run):
        trace, _ = traced_run
        for rid in trace.request_ids():
            spans = trace.spans_on(request_track(rid))
            root = next(s for s in spans if s.name == "request")
            for span in spans:
                assert span.start_s >= root.start_s - TOL
                assert span.end_s <= root.end_s + TOL

    def test_decode_spans_are_contiguous(self, traced_run):
        trace, _ = traced_run
        for rid in trace.request_ids():
            decode = [s for s in trace.spans_on(request_track(rid))
                      if s.name.startswith("decode[")]
            for left, right in zip(decode, decode[1:]):
                assert math.isclose(left.end_s, right.start_s, abs_tol=TOL)

    def test_replica_decode_spans_carry_attribution(self, traced_run):
        trace, _ = traced_run
        decode = [s for s in trace.spans_on(replica_track("single"))
                  if s.name == "decode"]
        assert decode
        for span in decode:
            assert span.args["batch_size"] >= 1
            busy = span.args["compute_s"] + span.args["memory_s"]
            assert busy > 0.0


class TestClusterTracing:
    def _run(self, tracer, events=()):
        model = get_model("llama2-7b")
        spr = get_platform("spr")
        nodes = [ReplicaNode(f"spr-{i}", spr, model) for i in range(2)]
        arrivals = poisson_arrivals(2.0, 16, seed=11)
        report = ClusterSimulator(nodes, LeastOutstandingTokensRouter(),
                                  events=list(events),
                                  tracer=tracer).run(arrivals)
        return report

    def test_failure_emits_instants_and_wasted_attribution(self):
        tracer = RecordingTracer()
        report = self._run(tracer,
                           events=[NodeFailure(time_s=3.0, node="spr-1")])
        failures = [e for e in tracer.trace.instants
                    if e.track == CLUSTER_TRACK and e.name == FAILURE]
        assert len(failures) == 1
        requeues = [e for e in tracer.trace.instants if e.name == "requeue"]
        assert len(requeues) == report.requeued_requests
        attribution = request_attribution(tracer.trace)
        wasted = {rid for rid, a in attribution.items() if a.wasted_s > 0}
        assert len(wasted) == report.requeued_requests
        for a in attribution.values():
            assert math.isclose(a.attributed_s, a.total_s, abs_tol=TOL)

    def test_fleet_queue_counter_sampled(self):
        tracer = RecordingTracer()
        self._run(tracer)
        samples = [c for c in tracer.trace.counters
                   if c.name == "fleet_queue_depth"]
        assert samples
        assert all(c.track == CLUSTER_TRACK for c in samples)

    def test_replica_tracks_cover_fleet(self):
        tracer = RecordingTracer()
        self._run(tracer)
        assert tracer.trace.replica_names() == ["spr-0", "spr-1"]


class TestStructuredEvents:
    def test_render_parity_failure(self):
        event = ClusterEvent(FAILURE, 3.14159, "spr-1",
                             {"requeued": 2, "wasted_tokens": 40})
        assert event.render() == \
            "t=3.14s spr-1 FAILED: 2 requests requeued, 40 tokens wasted"

    def test_render_parity_scale_up_and_online(self):
        up = ClusterEvent(SCALE_UP, 10.0, "spr-auto-1", {"online_at_s": 40.0})
        assert up.render() == \
            "t=10.00s scale-up ordered (spr-auto-1, online at t=40.00s)"
        online = ClusterEvent(ONLINE, 40.0, "spr-auto-1",
                              {"platform": "SPR-Max-9468"})
        assert online.render() == "t=40.00s spr-auto-1 online (SPR-Max-9468)"

    def test_render_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cluster event kind"):
            ClusterEvent("reboot", 0.0, "x").render()

    def test_report_events_property_renders_structured_log(self):
        tracer = RecordingTracer()
        model = get_model("llama2-7b")
        nodes = [ReplicaNode(f"spr-{i}", get_platform("spr"), model)
                 for i in range(2)]
        report = ClusterSimulator(
            nodes, RoundRobinRouter(),
            events=[NodeFailure(time_s=2.0, node="spr-0")],
            tracer=tracer).run(poisson_arrivals(2.0, 12, seed=3))
        assert report.cluster_events
        assert report.events == [e.render() for e in report.cluster_events]
        assert any("FAILED" in line for line in report.events)


class TestChromeExport:
    def test_round_trip_and_phase_validity(self, traced_run):
        trace, _ = traced_run
        document = json.loads(json.dumps(to_chrome_trace(trace)))
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "C", "M"}
        for event in events:
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_event_counts_match_trace(self, traced_run):
        trace, _ = traced_run
        events = to_chrome_trace(trace)["traceEvents"]
        by_phase = {}
        for event in events:
            by_phase[event["ph"]] = by_phase.get(event["ph"], 0) + 1
        assert by_phase.get("X", 0) == len(trace.spans)
        assert by_phase.get("i", 0) == len(trace.instants)
        assert by_phase.get("C", 0) == len(trace.counters)

    def test_metadata_names_every_track(self, traced_run):
        trace, _ = traced_run
        events = to_chrome_trace(trace)["traceEvents"]
        thread_names = [e for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(thread_names) == len(trace.tracks())

    def test_nesting_preserved_in_microseconds(self, traced_run):
        """Child X-events stay inside their root's [ts, ts+dur] window."""
        trace, _ = traced_run
        events = to_chrome_trace(trace)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        by_tid = {}
        for event in spans:
            by_tid.setdefault((event["pid"], event["tid"]),
                              []).append(event)
        roots = {key: next((e for e in group if e["name"] == "request"),
                           None)
                 for key, group in by_tid.items()}
        checked = 0
        for key, group in by_tid.items():
            root = roots[key]
            if root is None:
                continue
            for event in group:
                assert event["ts"] >= root["ts"] - 1e-3
                assert (event["ts"] + event["dur"]
                        <= root["ts"] + root["dur"] + 1e-3)
                checked += 1
        assert checked > 0

    def test_write_requires_existing_directory(self, tmp_path, traced_run):
        trace, _ = traced_run
        missing = tmp_path / "no" / "such" / "dir" / "out.json"
        with pytest.raises(FileNotFoundError,
                           match="directory .* does not exist"):
            write_chrome_trace(trace, missing)

    def test_write_and_reload(self, tmp_path, traced_run):
        trace, _ = traced_run
        path = write_chrome_trace(trace, tmp_path / "out.json")
        assert json.loads(path.read_text()) == to_chrome_trace(trace)


class TestAnalyses:
    def test_occupancy_covers_decode_time(self, traced_run):
        trace, _ = traced_run
        histogram = batch_occupancy_histogram(trace)
        decode_s = sum(s.duration_s for s in trace.spans
                       if s.category == "replica" and s.name == "decode")
        assert math.isclose(sum(histogram.values()), decode_s, abs_tol=TOL)
        assert all(size >= 1 for size in histogram)

    def test_occupancy_filter_by_replica(self, traced_run):
        trace, _ = traced_run
        assert batch_occupancy_histogram(trace, replica="single") == \
            batch_occupancy_histogram(trace)
        assert batch_occupancy_histogram(trace, replica="absent") == {}

    def test_utilization_timeline_bounds(self, traced_run):
        trace, _ = traced_run
        timeline = replica_utilization_timeline(trace, buckets=10)
        assert set(timeline) == {"single"}
        series = timeline["single"]
        assert len(series) == 10
        assert all(0.0 <= busy <= 1.0 for _, busy in series)
        # The scheduler is busy most of the run's middle.
        assert max(busy for _, busy in series) > 0.5

    def test_utilization_rejects_bad_buckets(self, traced_run):
        trace, _ = traced_run
        with pytest.raises(ValueError, match="buckets must be positive"):
            replica_utilization_timeline(trace, buckets=0)


class TestAsciiTimeline:
    def test_renders_every_track(self, traced_run):
        trace, _ = traced_run
        art = ascii_timeline(trace, width=60)
        for track in trace.tracks():
            assert track in art
        assert "legend:" in art

    def test_rejects_narrow_width(self, traced_run):
        trace, _ = traced_run
        with pytest.raises(ValueError, match="width must be >= 16"):
            ascii_timeline(trace, width=8)

    def test_empty_trace(self):
        assert ascii_timeline(Trace()) == "(empty trace)"


class TestEngineTracing:
    def test_exact_run_emits_per_step_spans(self):
        simulator = InferenceSimulator(get_platform("spr"))
        model = get_model("opt-1.3b")
        request = InferenceRequest(batch_size=1, input_len=64, output_len=8)
        tracer = RecordingTracer()
        result = simulator.run(model, request, exact=True, tracer=tracer)
        spans = tracer.trace.spans_on(ENGINE_TRACK)
        prefill = next(s for s in spans if s.name == "prefill")
        decode = next(s for s in spans if s.name == "decode")
        assert math.isclose(prefill.duration_s, result.prefill.time_s,
                            abs_tol=TOL)
        assert math.isclose(decode.duration_s, result.decode.time_s,
                            abs_tol=TOL)
        steps = [s for s in spans if s.name.startswith("decode[")]
        assert len(steps) == request.decode_steps
        assert math.isclose(sum(s.duration_s for s in steps),
                            result.decode.time_s, abs_tol=TOL)

    def test_fast_path_emits_phase_spans_only(self):
        simulator = InferenceSimulator(get_platform("spr"))
        model = get_model("opt-1.3b")
        request = InferenceRequest(batch_size=1, input_len=64, output_len=8)
        tracer = RecordingTracer()
        simulator.run(model, request, tracer=tracer)
        names = {s.name for s in tracer.trace.spans_on(ENGINE_TRACK)}
        assert names == {"prefill", "decode"}
