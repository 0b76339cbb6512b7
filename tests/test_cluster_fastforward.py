"""Property-style parity: event-horizon fast-forward vs per-iteration loop.

The fast-forward engine (``exact=False``, the default) prices whole
pure-decode stretches in closed form; ``exact=True`` steps and prices
every scheduler iteration individually. These tests drive both modes
over randomized schedules — arrivals, failures, drains, autoscaling,
every router — and require the *same simulation*: integer accounting
bit-equal, external event stamps bit-equal, and every timing field
within 1e-9 relative. A separate test pins that the fast runs actually
coalesce (otherwise parity would pass vacuously by never fast-forwarding).
"""

import math
import random

import pytest

from repro.cluster import (
    Autoscaler,
    ClusterSimulator,
    JoinShortestQueueRouter,
    LeastOutstandingTokensRouter,
    NodeDrain,
    NodeFailure,
    PhaseAwareRouter,
    ReplicaNode,
    ReplicaSpec,
    RoundRobinRouter,
    make_scheduler,
)
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import (
    ArrivingRequest,
    bursty_arrivals,
    iter_poisson_arrivals,
    poisson_arrivals,
)
from repro.serving.scheduler import BatchingSimulator
from repro.serving.slo import SLO
from repro.trace import NOOP_TRACER, RecordingTracer, request_attribution
from repro.workloads.generator import WorkloadSpec

SPR = get_platform("spr")
LLAMA = get_model("llama2-7b")
OPT = get_model("opt-1.3b")

REL = 1e-9


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def decode_heavy_spec():
    return WorkloadSpec(name="agentic", input_len_range=(16, 64),
                        output_len_range=(96, 192), batch_size=1,
                        priority_metric="tpot_s")


def fleet(count, model=OPT, max_batch=4):
    return [ReplicaNode(f"spr-{i}", SPR, model, max_batch=max_batch)
            for i in range(count)]


def run_both(arrivals, make_router, *, nodes=3, model=OPT,
             events=(), make_autoscaler=lambda: None, tracer=None):
    """The same schedule through both modes, fresh state per run."""
    exact = ClusterSimulator(fleet(nodes, model), make_router(),
                             autoscaler=make_autoscaler(), events=events,
                             exact=True).run(list(arrivals))
    fast_sim = ClusterSimulator(fleet(nodes, model), make_router(),
                                autoscaler=make_autoscaler(), events=events,
                                exact=False)
    if tracer is not None:
        fast_sim.tracer = tracer
        for node in fast_sim.nodes:
            node.tracer = tracer
    fast = fast_sim.run(list(arrivals))
    return exact, fast


def assert_reports_agree(exact, fast):
    """Every ClusterReport field, integer-exact or 1e-9-relative."""
    assert exact.generated_tokens == fast.generated_tokens
    assert exact.wasted_tokens == fast.wasted_tokens
    assert exact.requeued_requests == fast.requeued_requests
    assert close(exact.makespan_s, fast.makespan_s)
    assert close(exact.throughput, fast.throughput)
    assert close(exact.mean_ttft_s, fast.mean_ttft_s)

    assert len(exact.node_stats) == len(fast.node_stats)
    for e, f in zip(exact.node_stats, fast.node_stats):
        assert (e.name, e.platform, e.iterations, e.completed,
                e.generated_tokens, e.peak_queue, e.failed, e.drained) == \
               (f.name, f.platform, f.iterations, f.completed,
                f.generated_tokens, f.peak_queue, f.failed, f.drained)
        assert close(e.busy_s, f.busy_s)

    # External stamps are never re-derived from iteration timing, so the
    # administrative record must agree to the bit, depths included.
    assert [(ev.kind, ev.node, ev.time_s) for ev in exact.cluster_events] \
        == [(ev.kind, ev.node, ev.time_s) for ev in fast.cluster_events]
    assert exact.queue_depth_timeline == fast.queue_depth_timeline

    by_id = lambda report: sorted(report.completed,
                                  key=lambda r: r.request_id)
    exact_records, fast_records = by_id(exact), by_id(fast)
    assert len(exact_records) == len(fast_records)
    for e, f in zip(exact_records, fast_records):
        assert e.request_id == f.request_id
        assert e.arrival_s == f.arrival_s
        assert close(e.start_s, f.start_s)
        assert close(e.first_token_s, f.first_token_s)
        assert close(e.finish_s, f.finish_s)


def random_schedule(seed):
    """A seeded (arrivals, failure/drain events) draw over 3 replicas."""
    rng = random.Random(seed)
    spec = decode_heavy_spec() if rng.random() < 0.5 else None
    arrivals = poisson_arrivals(rng.choice([0.5, 1.0, 2.0]), 32, spec,
                                seed=seed)
    events = []
    if rng.random() < 0.7:
        events.append(NodeFailure(time_s=rng.uniform(2.0, 30.0),
                                  node="spr-0"))
    if rng.random() < 0.5:
        events.append(NodeDrain(time_s=rng.uniform(5.0, 40.0),
                                node="spr-1"))
    return arrivals, events


class TestRandomScheduleParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_failures_and_drains(self, seed):
        arrivals, events = random_schedule(seed)
        exact, fast = run_both(arrivals, RoundRobinRouter, events=events)
        assert_reports_agree(exact, fast)

    @pytest.mark.parametrize("make_router", [
        JoinShortestQueueRouter,
        LeastOutstandingTokensRouter,
        lambda: PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2)),
    ])
    def test_every_router(self, make_router):
        arrivals = poisson_arrivals(2.0, 32, decode_heavy_spec(), seed=3)
        exact, fast = run_both(arrivals, make_router, nodes=2)
        assert_reports_agree(exact, fast)

    def test_autoscaled_bursty_fleet(self):
        arrivals = bursty_arrivals(0.5, 6.0, 48, decode_heavy_spec(),
                                   seed=11)

        def make_autoscaler():
            return Autoscaler(ReplicaSpec(SPR, OPT, max_batch=4),
                              max_nodes=5, provisioning_lag_s=8.0,
                              sample_interval_s=2.0)

        exact, fast = run_both(arrivals, RoundRobinRouter, nodes=1,
                               make_autoscaler=make_autoscaler)
        kinds = {ev.kind for ev in fast.cluster_events}
        assert "scale_up" in kinds  # the schedule must exercise scaling
        assert_reports_agree(exact, fast)


class TestFastPathEngaged:
    """Parity is meaningless if the fast path never actually coalesces."""

    def traced_fast_run(self):
        tracer = RecordingTracer()
        arrivals = poisson_arrivals(2.0, 24, decode_heavy_spec(), seed=5)
        exact, fast = run_both(arrivals, RoundRobinRouter, nodes=2,
                               tracer=tracer)
        assert_reports_agree(exact, fast)
        return tracer.trace, fast

    def test_coalesced_spans_present(self):
        trace, _ = self.traced_fast_run()
        coalesced = [s for s in trace.spans
                     if s.name == "decode" and s.args.get("coalesced")]
        assert coalesced, "fast run never fast-forwarded"
        assert all(span.args["steps"] >= 2 for span in coalesced)

    def test_attribution_closure_with_coalesced_spans(self):
        trace, fast = self.traced_fast_run()
        attribution = request_attribution(trace)
        assert set(attribution) == {r.request_id for r in fast.completed}
        for record in fast.completed:
            a = attribution[record.request_id]
            assert math.isclose(a.attributed_s, record.e2e_s, abs_tol=1e-9)
            assert math.isclose(a.total_s, record.e2e_s, abs_tol=1e-9)


class TestRunContinuousParity:
    @pytest.mark.parametrize("policy, chunk_tokens", [
        ("continuous", 256), ("static", 256), ("chunked", 64),
        ("chunked", 256)], ids=["continuous", "static", "chunked-64",
                                "chunked-256"])
    def test_exact_flag_matches_fast_path(self, policy, chunk_tokens):
        # The public static/chunked runners take no ``exact`` flag, so
        # every discipline drives a node directly, with gap collection
        # on (a static run's gaps are otherwise not collected).
        arrivals = poisson_arrivals(3.0, 24, decode_heavy_spec(), seed=9)
        simulator = BatchingSimulator(SPR, LLAMA, max_batch=8)
        serve = lambda exact: ReplicaNode(
            "single", SPR, LLAMA, 8, policy=policy,
            chunk_tokens=chunk_tokens, exact=exact,
            collect_gaps=True).serve(arrivals)
        fast = serve(False)
        exact = serve(True)
        assert exact.generated_tokens == fast.generated_tokens
        assert close(exact.makespan_s, fast.makespan_s)
        assert len(exact.decode_gaps) == len(fast.decode_gaps)
        assert all(close(e, f) for e, f in zip(exact.decode_gaps,
                                               fast.decode_gaps))
        by_id = lambda report: sorted(report.completed,
                                      key=lambda r: r.request_id)
        assert len(exact.completed) == len(fast.completed)
        for e, f in zip(by_id(exact), by_id(fast)):
            assert e.request_id == f.request_id
            assert close(e.start_s, f.start_s)
            assert close(e.ttft_s, f.ttft_s)
            assert close(e.finish_s, f.finish_s)
        if policy == "continuous":
            # The public runner is the same node.
            public = simulator.run_continuous(arrivals, exact=True)
            assert public.completed == serve(True).completed

    def test_single_replica_cluster_bit_exact_at_high_rate(self):
        # High rate + long decodes: deep batches and long coalesced runs,
        # yet the one-replica cluster must still equal run_continuous to
        # the bit (same mode on both sides; the drivers are the variable).
        arrivals = poisson_arrivals(4.0, 32, decode_heavy_spec(), seed=13)
        single = BatchingSimulator(SPR, LLAMA, max_batch=8).run_continuous(
            arrivals)
        node = ReplicaNode("solo", SPR, LLAMA, max_batch=8)
        cluster = ClusterSimulator([node], RoundRobinRouter()).run(arrivals)
        by_id = {r.request_id: r for r in cluster.completed}
        for record in single.completed:
            twin = by_id[record.request_id]
            assert twin.ttft_s == record.ttft_s
            assert twin.finish_s == record.finish_s
        assert cluster.makespan_s == single.makespan_s


class TestStreamingParity:
    def test_iterator_and_list_arrivals_agree_bit_exactly(self):
        kwargs = dict(rate_per_s=2.0, count=40, seed=17)
        from_list = ClusterSimulator(fleet(2), RoundRobinRouter()).run(
            poisson_arrivals(kwargs["rate_per_s"], kwargs["count"],
                             seed=kwargs["seed"]))
        from_stream = ClusterSimulator(fleet(2), RoundRobinRouter()).run(
            iter_poisson_arrivals(**kwargs))
        assert [(r.request_id, r.ttft_s, r.finish_s)
                for r in from_list.completed] == \
               [(r.request_id, r.ttft_s, r.finish_s)
                for r in from_stream.completed]
        assert from_list.queue_depth_timeline == \
            from_stream.queue_depth_timeline


def _observer_arrivals(seed, count=40):
    """Prompts above a 32-token chunk; about a quarter want one token."""
    rng = random.Random(seed)
    arrival, arrivals = 0.0, []
    for request_id in range(count):
        arrival += rng.expovariate(3.0)
        output_len = 1 if rng.random() < 0.25 else rng.randint(2, 40)
        arrivals.append(ArrivingRequest(request_id, arrival,
                                        rng.randint(40, 120), output_len))
    return arrivals


class TestObserverInvariance:
    """Watching a fast-mode run does not change it.

    A recording tracer keeps lone decode steps on ``advance()`` and gap
    collection expands coalesced runs into per-step gaps; both take other
    code paths than the unobserved loop, and must still reach the same
    simulation, bit for bit.
    """

    @staticmethod
    def run(policy, admission, observer):
        nodes = [ReplicaNode(f"spr-{i}", SPR, OPT, max_batch=4,
                             policy=policy, chunk_tokens=32,
                             admission=make_scheduler(admission),
                             collect_gaps=observer == "gaps")
                 for i in range(3)]
        arrivals = _observer_arrivals(seed=5)
        events = [NodeFailure(0.4 * arrivals[-1].arrival_s, "spr-1")]
        tracer = RecordingTracer() if observer == "tracer" else NOOP_TRACER
        simulator = ClusterSimulator(nodes, LeastOutstandingTokensRouter(),
                                     events=events, tracer=tracer)
        report = simulator.run(arrivals)
        assert len(report.completed) == len(arrivals)
        if observer == "gaps":
            assert any(node.decode_gaps for node in nodes)
        if observer == "tracer":
            assert any(span.args.get("coalesced")
                       for span in tracer.trace.spans)
        return (report.completed,
                [(node.busy_s, node.iterations) for node in nodes])

    @pytest.mark.parametrize("admission", ["fcfs", "wsc"])
    @pytest.mark.parametrize("policy", ["continuous", "static", "chunked"])
    def test_traced_and_gap_collecting_runs_equal_untraced(self, policy,
                                                           admission):
        plain = self.run(policy, admission, None)
        assert plain == self.run(policy, admission, "tracer")
        assert plain == self.run(policy, admission, "gaps")
