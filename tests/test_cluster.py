"""Cluster-layer tests: node stepping, routing, failures, autoscaling.

The load-bearing guarantee is exact parity: one replica driven by the
cluster event loop must reproduce ``run_continuous`` timing to the bit,
because they are the same scheduling code reached through two drivers.
"""

import random

import pytest

from repro.cluster import (
    Autoscaler,
    ClusterConfig,
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
from repro.cluster.events import FAILURE, ONLINE, SCALE_UP
from repro.engine.backend import parse_backend
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import (
    ArrivingRequest,
    bursty_arrivals,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serving.scheduler import BatchingSimulator
from repro.serving.slo import SLO
from repro.trace import NOOP_TRACER, RecordingTracer
from repro.workloads import TenantStream, TenantWorkloadSpec
from repro.workloads.generator import WorkloadSpec, chatbot_workload

SPR = get_platform("spr")
H100 = get_platform("h100")
LLAMA = get_model("llama2-7b")
OPT = get_model("opt-1.3b")


def spr_node(name="spr-0", model=LLAMA):
    return ReplicaNode(name, SPR, model)


def decode_heavy_spec():
    return WorkloadSpec(name="agentic", input_len_range=(16, 64),
                        output_len_range=(96, 192), batch_size=1,
                        priority_metric="tpot_s")


class TestReplicaNode:
    def test_idle_node_has_no_event(self):
        assert spr_node().next_event_time() is None

    def test_submit_sets_next_event_to_ready_time(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 1.5, 64, 16))
        assert node.next_event_time() == 1.5

    def test_requeued_request_is_ready_at_requeue_time(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 1.5, 64, 16), ready_s=4.0)
        assert node.next_event_time() == 4.0

    def test_advance_runs_one_iteration(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 0.0, 64, 4))
        node.advance()
        assert node.iterations == 1
        assert len(node.running) == 1
        assert node.clock > 0

    def test_node_completes_request(self):
        node = spr_node()
        request = ArrivingRequest(0, 0.0, 64, 4)
        node.submit(request)
        while node.has_work:
            node.advance()
        assert len(node.completed) == 1
        assert node.generated_tokens == request.output_len
        assert node.completed[0].ttft_s > 0

    def test_fail_returns_lost_work_and_wasted_tokens(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 0.0, 64, 32))
        node.submit(ArrivingRequest(1, 0.0, 64, 32))
        node.advance()  # both admitted: first token + one decode step
        lost, wasted = node.fail()
        assert {r.request_id for r in lost} == {0, 1}
        assert wasted == 4  # 2 sequences x 2 generated tokens
        assert not node.active and not node.has_work

    def test_outstanding_tokens_counts_queued_and_running(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 0.0, 100, 10))
        assert node.outstanding_tokens == 110
        node.advance()
        # Admitted: first token + one decode step generated.
        assert node.outstanding_tokens == 108

    def test_backlog_grows_with_queued_work(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 0.0, 256, 64))
        one = node.backlog_s(0.0)
        node.submit(ArrivingRequest(1, 0.0, 256, 64))
        assert node.backlog_s(0.0) > one

    def test_chunked_prompts_in_flight_count_in_routing_estimates(self):
        node = ReplicaNode("spr-0", SPR, LLAMA, max_batch=4,
                           policy="chunked", chunk_tokens=64)
        node.submit(ArrivingRequest(0, 0.0, 1024, 32))
        node.submit(ArrivingRequest(1, 0.0, 100, 8))
        assert node.outstanding_tokens == 1056 + 108
        node.advance()  # both admitted; one 64-token chunk of the first
        assert [job.prompt_left for job in node.prefilling] == [960, 100]
        assert node.outstanding_tokens == 960 + 32 + 100 + 8
        chunk = node.cost_table.prefill_time(1, 64)
        tail = node.cost_table.prefill_time(1, 36)
        assert node.backlog_s(node.clock) == pytest.approx(
            15 * chunk + chunk + tail, rel=1e-12)

    def test_node_has_no_instance_dict(self):
        # Every self.x in the node's hot loop must stay a fast attribute
        # read. An instance dict stops sharing its keys at 30 attributes
        # (a 33-attribute node ran the fleet-decode benchmark 7% slower);
        # __slots__ declares every attribute, so none can fall off.
        spec = ReplicaSpec(SPR, LLAMA, count=1, max_batch=4,
                           backend=parse_backend("int8"), scheduler="wsc")
        nodes = [spec.build("spr-0")]
        ClusterSimulator(nodes, RoundRobinRouter()).run(
            poisson_arrivals(2.0, 8, seed=1))
        assert not hasattr(nodes[0], "__dict__")


def _recount(node):
    """Outstanding tokens by scanning the node's queues.

    The O(queue) sum the node's ``outstanding_tokens`` counter stands
    for, kept here as the oracle the counter is checked against.
    """
    total = sum(q.request.input_len + q.request.output_len
                for q in node.pending)
    total += sum(seq.request.input_len + seq.request.output_len
                 - seq.generated for seq in node.running)
    total += sum(job.prompt_left + job.request.output_len
                 for job in node.prefilling)
    return total


@pytest.fixture
def ledger_checked(monkeypatch):
    """Compare the counter to the recount after every node call.

    Patches the class, so nodes a simulator builds are checked too.
    Returns the names of the calls checked, in order.
    """
    checked = []
    for name in ("submit", "advance", "advance_to", "fail"):
        def wrapper(node, *args, _method=getattr(ReplicaNode, name),
                    _name=name, **kwargs):
            result = _method(node, *args, **kwargs)
            assert node.outstanding_tokens == _recount(node), _name
            checked.append(_name)
            return result
        monkeypatch.setattr(ReplicaNode, name, wrapper)
    return checked


def _ledger_arrivals(seed, count=24):
    """A burst-heavy stream; a quarter of the requests want one token."""
    rng = random.Random(seed)
    arrival, arrivals = 0.0, []
    for request_id in range(count):
        arrival += rng.expovariate(12.0)
        output_len = 1 if rng.random() < 0.25 else rng.randint(2, 24)
        arrivals.append(ArrivingRequest(request_id, arrival,
                                        rng.randint(40, 120), output_len))
    return arrivals


class TestOutstandingTokenLedger:
    """The node's token counter equals the queue scan after every call."""

    @pytest.mark.parametrize("exact", [False, pytest.param(True, id="step")])
    @pytest.mark.parametrize("admission", [None, "fcfs", "vtc", "wsc"])
    @pytest.mark.parametrize("policy", ["continuous", "static", "chunked"])
    def test_counter_matches_recount(self, ledger_checked, policy,
                                     admission, exact):
        arrivals = _ledger_arrivals(seed=3)
        # One node drains the stream; a second fails halfway through.
        for fail_at in (None, len(arrivals) // 2):
            node = ReplicaNode("spr-0", SPR, OPT, max_batch=4, exact=exact,
                               admission=make_scheduler(admission),
                               policy=policy, chunk_tokens=32)
            for index, request in enumerate(arrivals):
                if index == fail_at:
                    assert node.has_work
                    node.fail()
                    break
                node.advance_to(request.arrival_s)
                node.submit(request)
                if index % 5 == 4:
                    node.advance()
            else:
                node.advance_to(None)
            assert node.outstanding_tokens == 0
        assert {"submit", "advance", "advance_to", "fail"} <= set(
            ledger_checked)

    @pytest.mark.parametrize("traced", [False, True])
    def test_counter_matches_recount_through_cluster(self, ledger_checked,
                                                     traced):
        nodes = [ReplicaNode("cont-0", SPR, OPT, max_batch=4,
                             admission=make_scheduler("wsc")),
                 ReplicaNode("chunk-1", SPR, OPT, max_batch=4,
                             policy="chunked", chunk_tokens=32),
                 ReplicaNode("static-2", SPR, OPT, max_batch=4,
                             policy="static"),
                 ReplicaNode("cont-3", SPR, OPT, max_batch=4)]
        arrivals = _ledger_arrivals(seed=11, count=48)
        span = arrivals[-1].arrival_s
        events = [NodeFailure(0.3 * span, "cont-0"),
                  NodeDrain(0.6 * span, "chunk-1")]
        tracer = RecordingTracer() if traced else NOOP_TRACER
        report = ClusterSimulator(nodes, LeastOutstandingTokensRouter(),
                                  events=events, tracer=tracer).run(arrivals)
        assert len(report.completed) == len(arrivals)
        assert all(node.outstanding_tokens == 0 for node in nodes)
        assert "fail" in ledger_checked


@pytest.fixture
def backlog_checked(monkeypatch):
    """Compare backlog_s to a fresh recomputation after every node call.

    The node caches its queued-prefill sum between queue changes;
    clearing the cache forces the recomputation the cached read must
    equal, at the node's clock and at time 0 (where the in-flight
    iteration's remainder counts too).
    """
    checked = []
    for name in ("submit", "advance", "advance_to", "fail"):
        def wrapper(node, *args, _method=getattr(ReplicaNode, name),
                    _name=name, **kwargs):
            result = _method(node, *args, **kwargs)
            for now in (node.clock, 0.0):
                cached = node.backlog_s(now)
                node._queued_prefill_s = None
                assert cached == node.backlog_s(now), _name
            checked.append(_name)
            return result
        monkeypatch.setattr(ReplicaNode, name, wrapper)
    return checked


class TestBacklogCache:
    """backlog_s's cached queue sum never goes stale."""

    @pytest.mark.parametrize("admission", [None, "fcfs", "vtc", "wsc"])
    @pytest.mark.parametrize("policy", ["continuous", "static", "chunked"])
    def test_cached_backlog_matches_fresh(self, backlog_checked, policy,
                                          admission):
        arrivals = _ledger_arrivals(seed=5)
        # One node drains the stream; a second fails halfway through.
        for fail_at in (None, len(arrivals) // 2):
            node = ReplicaNode("spr-0", SPR, OPT, max_batch=4,
                               admission=make_scheduler(admission),
                               policy=policy, chunk_tokens=32)
            for index, request in enumerate(arrivals):
                if index == fail_at:
                    assert node.fail()[0]
                    break
                node.advance_to(request.arrival_s)
                node.submit(request)
                if index % 7 == 6:
                    # A requeue stamped before the queue tail bisects in.
                    node.submit(ArrivingRequest(1000 + index, 0.0, 64, 4),
                                ready_s=request.arrival_s - 0.01)
            else:
                node.advance_to(None)
            assert node.backlog_s(node.clock) == 0.0
        assert {"submit", "advance", "advance_to", "fail"} <= set(
            backlog_checked)

    def test_out_of_order_submit_keeps_queue_sorted(self):
        node = spr_node()
        for request_id, ready_s in enumerate((1.0, 3.0, 2.0, 3.0, 0.5)):
            node.submit(ArrivingRequest(request_id, 0.0, 64, 4),
                        ready_s=ready_s)
        assert [(q.ready_s, q.request.request_id) for q in node.pending] == [
            (0.5, 4), (1.0, 0), (2.0, 2), (3.0, 1), (3.0, 3)]


def _churn_fleet_run(seed, tracer=NOOP_TRACER):
    """A small fleet-churn-shaped run: short prompts behind least-tokens
    routing, WSC admission on every replica, a failure and a drain."""
    config = ClusterConfig([
        ReplicaSpec(get_platform("icl"), LLAMA, count=2, scheduler="wsc"),
        ReplicaSpec(SPR, LLAMA, count=2, scheduler="wsc",
                    backend=parse_backend("int8")),
    ])
    spec = TenantWorkloadSpec(users=8, apps=2, zipf_s=1.2,
                              input_len_range=(128, 224),
                              output_len_range=(8, 32))
    arrivals = list(TenantStream(spec=spec, rate_per_s=2.5, seed=seed,
                                 count=300).full())
    fleet = config.build_fleet()
    first, last = arrivals[0].arrival_s, arrivals[-1].arrival_s
    events = [NodeFailure(first + 0.25 * (last - first), fleet[1].name),
              NodeDrain(first + 0.60 * (last - first), fleet[0].name)]
    ClusterSimulator(fleet, LeastOutstandingTokensRouter(), events=events,
                     tracer=tracer).run(arrivals)


class TestBoundaryOnlyAdvance:
    """Untraced fast mode steps advance() only at batch-membership changes."""

    @pytest.fixture
    def tally(self, monkeypatch):
        """Count advance() calls, and those that neither admit, retire
        nor prefill a chunk (a pure decode step)."""
        counts = {"calls": 0, "pure": 0}
        advance = ReplicaNode.advance

        def counted(node):
            admitted = len(node.admission_stamps)
            chunking = bool(node.prefilling)
            retired = advance(node)
            counts["calls"] += 1
            if not (retired or chunking
                    or len(node.admission_stamps) != admitted):
                counts["pure"] += 1
            return retired

        monkeypatch.setattr(ReplicaNode, "advance", counted)
        return counts

    @pytest.mark.parametrize("seed", [7, 8])
    def test_untraced_fleet_never_steps_a_pure_decode(self, tally, seed):
        _churn_fleet_run(seed)
        assert tally["calls"] > 0
        assert tally["pure"] == 0

    def test_traced_fleet_keeps_single_step_spans(self, tally):
        # A recording tracer keeps lone steps on advance(), so each one
        # still emits its per-iteration decode span.
        tracer = RecordingTracer()
        _churn_fleet_run(7, tracer)
        assert tally["pure"] > 0
        assert any(span.name == "decode" and "steps" not in span.args
                   for span in tracer.trace.spans)


class TestSingleReplicaParity:
    """One replica through the event loop == run_continuous, exactly."""

    @pytest.mark.parametrize("rate,seed", [(0.5, 0), (1.0, 7)])
    def test_exact_parity_at_low_rate(self, rate, seed):
        arrivals = poisson_arrivals(rate, 16, chatbot_workload(), seed=seed)
        single = BatchingSimulator(SPR, LLAMA, max_batch=8).run_continuous(
            arrivals)
        cluster = ClusterSimulator([spr_node()],
                                   RoundRobinRouter()).run(arrivals)
        by_id = {r.request_id: r for r in cluster.completed}
        assert len(cluster.completed) == len(single.completed)
        for record in single.completed:
            twin = by_id[record.request_id]
            assert twin.ttft_s == record.ttft_s
            assert twin.finish_s == record.finish_s
            assert twin.start_s == record.start_s
        assert cluster.makespan_s == single.makespan_s
        assert cluster.generated_tokens == single.generated_tokens


class TestRouters:
    def fleet(self):
        return [spr_node("a", OPT), spr_node("b", OPT)]

    def test_round_robin_cycles(self):
        nodes = self.fleet()
        router = RoundRobinRouter()
        request = ArrivingRequest(0, 0.0, 64, 16)
        picks = [router.select(request, nodes, 0.0).name for _ in range(4)]
        assert picks == ["a", "b", "a", "b"]

    def test_jsq_prefers_shorter_queue(self):
        nodes = self.fleet()
        nodes[0].submit(ArrivingRequest(0, 0.0, 64, 16))
        router = JoinShortestQueueRouter()
        assert router.select(ArrivingRequest(1, 0.0, 64, 16),
                             nodes, 0.0).name == "b"

    def test_least_tokens_weighs_request_size(self):
        nodes = self.fleet()
        # "a" has one tiny request, "b" one huge one: JSQ ties, token
        # counting does not.
        nodes[0].submit(ArrivingRequest(0, 0.0, 16, 4))
        nodes[1].submit(ArrivingRequest(1, 0.0, 1024, 512))
        router = LeastOutstandingTokensRouter()
        assert router.select(ArrivingRequest(2, 0.0, 64, 16),
                             nodes, 0.0).name == "a"

    def test_draining_and_failed_nodes_not_routable(self):
        nodes = self.fleet()
        nodes[0].drain()
        router = RoundRobinRouter()
        assert router.select(ArrivingRequest(0, 0.0, 64, 16),
                             nodes, 0.0).name == "b"
        nodes[1].fail()
        with pytest.raises(RuntimeError, match="no routable replica"):
            router.select(ArrivingRequest(1, 0.0, 64, 16), nodes, 0.0)


class TestPhaseAwareRouter:
    def hetero(self):
        return [ReplicaNode("spr-0", SPR, LLAMA),
                ReplicaNode("h100-0", H100, LLAMA)]

    def test_prefill_heavy_goes_to_compute_rich(self):
        router = PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2))
        pick = router.select(ArrivingRequest(0, 0.0, 1024, 16),
                             self.hetero(), 0.0)
        assert pick.name == "h100-0"

    def test_decode_heavy_goes_to_bandwidth_rich(self):
        router = PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2))
        pick = router.select(ArrivingRequest(0, 0.0, 32, 256),
                             self.hetero(), 0.0)
        assert pick.name == "spr-0"

    def test_slo_infeasible_node_overflows(self):
        nodes = self.hetero()
        # Bury the SPR node in decode work until its projected TTFT
        # breaks the SLO; decode-heavy traffic must overflow to the GPU.
        for i in range(8):
            nodes[0].submit(ArrivingRequest(i, 0.0, 32, 256))
        nodes[0].advance()
        router = PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2))
        pick = router.select(ArrivingRequest(99, 0.0, 32, 256), nodes, 0.0)
        assert pick.name == "h100-0"

    def test_no_feasible_node_degrades_to_earliest_finish(self):
        nodes = self.hetero()
        router = PhaseAwareRouter(slo=SLO(ttft_s=1e-6, tpot_s=1e-6))
        # Nothing is feasible; the router must still pick someone.
        pick = router.select(ArrivingRequest(0, 0.0, 64, 16), nodes, 0.0)
        assert pick.name in {"spr-0", "h100-0"}

    def test_cost_bands_are_equally_wide(self):
        # Bands floor: 0.87 and 1.149 are more than one 15% band apart,
        # which truncation toward zero used to fold into band 0.
        assert PhaseAwareRouter._band(0.87) != PhaseAwareRouter._band(1.149)



class TestFailures:
    def test_failure_requeues_without_losing_requests(self):
        arrivals = poisson_arrivals(2.0, 24, chatbot_workload(), seed=23)
        report = ClusterSimulator(
            [spr_node("spr-0"), spr_node("spr-1")],
            LeastOutstandingTokensRouter(),
            events=[NodeFailure(time_s=3.0, node="spr-1")]).run(arrivals)
        assert report.requeued_requests >= 1
        assert report.wasted_tokens >= 1
        assert len(report.completed) == len(arrivals)
        assert ({r.request_id for r in report.completed}
                == {r.request_id for r in arrivals})
        stats = {s.name: s for s in report.node_stats}
        assert stats["spr-1"].failed and not stats["spr-0"].failed
        assert any(e.kind == FAILURE for e in report.cluster_events)

    def test_requeued_request_keeps_charging_ttft(self):
        arrivals = poisson_arrivals(2.0, 24, chatbot_workload(), seed=23)
        nodes = lambda: [spr_node("spr-0"), spr_node("spr-1")]
        clean = ClusterSimulator(nodes(),
                                 LeastOutstandingTokensRouter()).run(arrivals)
        failed = ClusterSimulator(
            nodes(), LeastOutstandingTokensRouter(),
            events=[NodeFailure(time_s=3.0, node="spr-1")]).run(arrivals)
        # Losing a replica mid-trace cannot improve aggregate latency.
        assert failed.mean_ttft_s >= clean.mean_ttft_s

    def test_last_replica_failing_raises(self):
        arrivals = poisson_arrivals(2.0, 8, chatbot_workload(), seed=0)
        simulator = ClusterSimulator(
            [spr_node("only")], RoundRobinRouter(),
            events=[NodeFailure(time_s=0.5, node="only")])
        with pytest.raises(RuntimeError, match="no routable replica"):
            simulator.run(arrivals)


class TestAutoscaler:
    def template(self):
        return ReplicaSpec(SPR, LLAMA)

    def test_scales_up_on_deep_queue(self):
        scaler = Autoscaler(self.template(), scale_up_queue_per_node=2.0)
        node = spr_node()
        for i in range(5):
            node.submit(ArrivingRequest(i, 0.0, 64, 16))
        assert scaler.decide([node], provisioning=0) == "up"
        # A replica already on order dampens repeat scale-ups only via
        # max_nodes; the queue is still deep relative to active nodes.
        scaler_capped = Autoscaler(self.template(), max_nodes=1,
                                   scale_up_queue_per_node=2.0)
        assert scaler_capped.decide([node], provisioning=0) is None

    def test_scales_down_when_idle(self):
        scaler = Autoscaler(self.template())
        nodes = [spr_node("a"), spr_node("b")]
        assert scaler.decide(nodes, provisioning=0) == "down"
        # ...but never below MIN_NODES (one replica).
        assert scaler.decide([spr_node("a")], provisioning=0) is None

    def test_provisioning_lag_separates_order_from_online(self):
        burst = bursty_arrivals(0.2, 3.0, 16, decode_heavy_spec(),
                                burst_s=20.0, period_s=120.0, seed=23)
        scaler = Autoscaler(self.template(), max_nodes=3,
                            scale_up_queue_per_node=2.0,
                            provisioning_lag_s=6.0, sample_interval_s=1.0)
        report = ClusterSimulator([spr_node()], JoinShortestQueueRouter(),
                                  autoscaler=scaler).run(burst)
        assert len(report.node_stats) > 1
        ordered = [e for e in report.cluster_events if e.kind == SCALE_UP]
        online = [e for e in report.cluster_events if e.kind == ONLINE]
        assert ordered and online
        assert online[0].time_s == pytest.approx(ordered[0].time_s + 6.0)

    def test_thresholds_validated(self):
        with pytest.raises(ValueError, match="scale_down"):
            Autoscaler(self.template(), scale_up_queue_per_node=0.5)
        with pytest.raises(ValueError, match="max_nodes"):
            Autoscaler(self.template(), max_nodes=0)


class TestClusterReport:
    @pytest.fixture(scope="class")
    def report_and_arrivals(self):
        prefill = bursty_arrivals(0.4, 2.0, 8, None, burst_s=5.0,
                                  period_s=30.0, seed=1)
        decode = bursty_arrivals(0.4, 2.0, 8, decode_heavy_spec(),
                                 burst_s=5.0, period_s=30.0, seed=2)
        arrivals = merge_arrivals(prefill, decode)
        fleet = [ReplicaNode("spr-0", SPR, LLAMA),
                 ReplicaNode("h100-0", H100, LLAMA)]
        router = PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2))
        return ClusterSimulator(fleet, router).run(arrivals), arrivals

    def test_fleet_accounting(self, report_and_arrivals):
        report, arrivals = report_and_arrivals
        assert len(report.completed) == len(arrivals)
        assert report.generated_tokens == sum(r.output_len
                                              for r in arrivals)
        assert report.throughput > 0
        assert 0 < report.mean_ttft_s
        for stats in report.node_stats:
            assert 0 <= stats.utilization <= 1

    def test_cost_metrics(self, report_and_arrivals):
        report, _ = report_and_arrivals
        assert report.fleet_price_usd == pytest.approx(9_900 + 30_000)
        assert report.dollars_per_million_tokens() > 0

    def test_slo_scoring_delegates_to_serving(self, report_and_arrivals):
        report, arrivals = report_and_arrivals
        slo = SLO(ttft_s=2.0, tpot_s=0.2)
        assert 0 <= report.attainment(arrivals, slo) <= 1
        assert report.goodput(arrivals, slo) <= report.throughput * 1.001
        assert report.to_serving_report().policy == "cluster/phase_aware"

    def test_queue_timeline_is_time_ordered(self, report_and_arrivals):
        report, _ = report_and_arrivals
        times = [t for t, _depth in report.queue_depth_timeline]
        assert times == sorted(times)


class TestClusterValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ClusterSimulator([], RoundRobinRouter())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ClusterSimulator([spr_node("a"), spr_node("a")],
                             RoundRobinRouter())

    def test_empty_arrivals_rejected(self):
        simulator = ClusterSimulator([spr_node()], RoundRobinRouter())
        with pytest.raises(ValueError, match="no arrivals"):
            simulator.run([])

    @pytest.mark.parametrize("spelling", ["vectorized", "step"])
    def test_exact_must_be_bool(self, spelling):
        # A truthy string would otherwise run the per-step loop silently.
        with pytest.raises(ValueError, match="exact must be a bool"):
            ReplicaNode("spr-0", SPR, LLAMA, exact=spelling)
        with pytest.raises(ValueError, match="exact must be a bool"):
            ClusterSimulator([spr_node()], RoundRobinRouter(),
                             exact=spelling)


class TestArrivalHelpers:
    def test_bursty_arrivals_deterministic_and_sorted(self):
        a = bursty_arrivals(0.5, 4.0, 20, seed=3)
        b = bursty_arrivals(0.5, 4.0, 20, seed=3)
        assert a == b
        times = [r.arrival_s for r in a]
        assert times == sorted(times)

    def test_bursty_arrivals_bursts_are_denser(self):
        # With a 100x rate gap the burst windows must contain most
        # arrivals despite covering a fraction of the time.
        trace = bursty_arrivals(0.05, 5.0, 60, burst_s=10.0,
                                period_s=100.0, seed=0)
        in_burst = sum(1 for r in trace if (r.arrival_s % 100.0) < 10.0)
        assert in_burst > len(trace) * 0.6

    def test_bursty_validates_period(self):
        with pytest.raises(ValueError, match="period_s"):
            bursty_arrivals(1.0, 2.0, 4, burst_s=10.0, period_s=10.0)

    def test_merge_renumbers_and_sorts(self):
        merged = merge_arrivals(poisson_arrivals(1.0, 5, seed=0),
                                poisson_arrivals(1.0, 5, seed=1))
        assert [r.request_id for r in merged] == list(range(10))
        times = [r.arrival_s for r in merged]
        assert times == sorted(times)

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError, match="no arrivals"):
            merge_arrivals([])
