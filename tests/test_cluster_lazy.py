"""Lazy fleet advancement: advancing only observed replicas changes nothing.

The event loop brings forward only the replicas a routing decision
reads (``Router.observes``) plus the chosen one. The reference for every
built-in policy is the same policy wrapped so that it observes the whole
fleet, which makes the loop advance every active replica before each
arrival. The two runs must produce equal ``ClusterReport``\\ s, floats
compared exactly, queue-depth timeline included, under failures,
drains, fair admission and exact mode.
"""

import math

import pytest

from repro.cluster import (
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
    ShardRouter,
    TieredRouter,
)
from repro.cluster.router import Router
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import poisson_arrivals
from repro.trace import RecordingTracer, request_attribution
from repro.trace.spans import request_track
from repro.workloads import TenantStream, TenantWorkloadSpec

SPR = get_platform("spr")
ICL = get_platform("icl")
LLAMA7 = get_model("llama2-7b")
LLAMA13 = get_model("llama2-13b")
OPT = get_model("opt-1.3b")


class ObserveAll(Router):
    """*inner*'s decisions, with the whole fleet observed (the reference)."""

    def __init__(self, inner: Router):
        self.inner = inner
        self.name = inner.name

    def select(self, request, nodes, now):
        return self.inner.select(request, nodes, now)

    def counters(self):
        return self.inner.counters()


#: Every built-in policy, and ShardRouter over each as its local policy.
LOCALS = {
    "round_robin": RoundRobinRouter,
    "jsq": JoinShortestQueueRouter,
    "least_tokens": LeastOutstandingTokensRouter,
    "phase_aware": PhaseAwareRouter,
    "tiered": TieredRouter,
}
ROUTERS = dict(LOCALS)
ROUTERS.update({f"shard({name})": (lambda local=local: ShardRouter(2, local))
                for name, local in LOCALS.items()})

#: name -> (scheduler, exact, events). The failure and the drain hit
#: different ShardRouter(2) groups, so each group keeps a routable replica.
SCENARIOS = {
    "plain": (None, False, ()),
    "fail_drain": (None, False, (NodeFailure(8.0, "icl-1"),
                                 NodeDrain(14.0, "spr-2"))),
    "vtc": ("vtc", False, (NodeFailure(8.0, "icl-1"),)),
    "wsc": ("wsc", False, (NodeDrain(10.0, "spr-2"),)),
    "exact": (None, True, (NodeFailure(8.0, "icl-1"),)),
}


def fleet(scheduler=None):
    """Two cheap ICL-7B and two capable SPR-13B replicas (two tiers)."""
    weights = ((0, 2.0), (1, 0.5)) if scheduler == "wsc" else None
    return ClusterConfig([
        ReplicaSpec(ICL, LLAMA7, count=2, max_batch=4, scheduler=scheduler,
                    scheduler_weights=weights),
        ReplicaSpec(SPR, LLAMA13, count=2, max_batch=4,
                    scheduler=scheduler, scheduler_weights=weights),
    ]).build_fleet()


def tenant_arrivals():
    spec = TenantWorkloadSpec(users=4, apps=2, input_len_range=(16, 96),
                              output_len_range=(32, 160))
    return list(TenantStream(spec=spec, rate_per_s=4.0, count=100,
                             seed=29).full())


def run(router, scenario, tracer=None, progress=None, progress_every=16):
    scheduler, exact, events = SCENARIOS[scenario]
    kwargs = {} if tracer is None else {"tracer": tracer}
    simulator = ClusterSimulator(fleet(scheduler), router,
                                 events=list(events), exact=exact, **kwargs)
    return simulator.run(tenant_arrivals(), progress=progress,
                         progress_every=progress_every)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_lazy_run_equals_whole_fleet_reference(router, scenario):
    lazy = run(ROUTERS[router](), scenario)
    eager = run(ObserveAll(ROUTERS[router]()), scenario)
    assert lazy == eager
    if SCENARIOS[scenario][2]:
        assert lazy.cluster_events


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_rebuilt_timeline_matches_fleet_scan(scenario):
    # A progress tick after every dispatch sees the whole fleet current,
    # where the unadmitted queues can be counted directly.
    scheduler, exact, events = SCENARIOS[scenario]
    simulator = ClusterSimulator(fleet(scheduler),
                                 ShardRouter(2, LeastOutstandingTokensRouter),
                                 events=list(events), exact=exact)
    scanned = []

    def scan(_events, now, _completed):
        scanned.append((now, sum(node.queue_len for node in simulator.nodes
                                 if node.active)))

    report = simulator.run(tenant_arrivals(), progress=scan,
                           progress_every=1)
    assert report.queue_depth_timeline == scanned[:-1]
    assert max(depth for _, depth in scanned) > 0


def test_shard_router_advances_one_replica_per_arrival(monkeypatch):
    calls = []
    advance_to = ReplicaNode.advance_to

    def counted(node, horizon=None):
        calls.append(node.name)
        return advance_to(node, horizon)

    monkeypatch.setattr(ReplicaNode, "advance_to", counted)
    nodes = [ReplicaNode(f"spr-{i}", SPR, OPT, max_batch=4)
             for i in range(16)]
    arrivals = poisson_arrivals(16.0, 300, seed=4)
    ClusterSimulator(nodes, ShardRouter(16)).run(arrivals)
    assert len(calls) == len(arrivals) + len(nodes)


@pytest.mark.parametrize("router", ["round_robin", "shard(least_tokens)"])
def test_progress_ticks_match_eager_loop(router):
    ticks, eager_ticks = [], []
    report = run(ROUTERS[router](), "fail_drain",
                 progress=lambda *tick: ticks.append(tick))
    run(ObserveAll(ROUTERS[router]()), "fail_drain",
        progress=lambda *tick: eager_ticks.append(tick))
    assert report == run(ROUTERS[router](), "fail_drain")
    assert len(ticks) > 2
    assert ticks == eager_ticks


def test_traced_shard_run_spans_tile_each_request():
    lazy_tracer, eager_tracer = RecordingTracer(), RecordingTracer()
    report = run(ShardRouter(2), "plain", tracer=lazy_tracer)
    assert report == run(ObserveAll(ShardRouter(2)), "plain",
                         tracer=eager_tracer)

    def decode_spans(trace):
        return [s for s in trace.spans
                if s.category == "request" and s.name.startswith("decode")]

    # Fewer, longer coalesced stretches than the whole-fleet loop cuts.
    assert len(decode_spans(lazy_tracer.trace)) < \
        len(decode_spans(eager_tracer.trace))
    trace = lazy_tracer.trace
    attribution = request_attribution(trace)
    for record in report.completed:
        a = attribution[record.request_id]
        assert math.isclose(a.attributed_s, record.e2e_s, abs_tol=1e-9)
        spans = sorted((s for s in trace.spans_on(
            request_track(record.request_id)) if s.name != "request"),
            key=lambda s: (s.start_s, s.end_s))
        assert spans[0].start_s == record.arrival_s
        assert spans[-1].end_s == record.finish_s
        for left, right in zip(spans, spans[1:]):
            assert math.isclose(left.end_s, right.start_s, abs_tol=1e-9)
    samples = [c.value for c in trace.counters
               if c.name == "fleet_queue_depth"]
    assert samples == [depth for _, depth in report.queue_depth_timeline]
