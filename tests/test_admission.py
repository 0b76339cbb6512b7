"""Admission scheduling: FCFS parity, VTC/WSC fairness, shard composition.

The hard guarantees: a node with no scheduler (spelled ``None`` or
``"fcfs"``) behaves bit-identically to the pre-scheduler admission loop;
the fairness schedulers compose with event-horizon fast-forward (fast vs
exact agree) and with sharded execution (1/2/4 workers bit-identical);
and the counter mechanics (charging, the idle lift rule, weights) match
the VTC discipline.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    ReplicaNode,
    ReplicaSpec,
    RoundRobinRouter,
    ShardRouter,
    VirtualTokenCounterScheduler,
    WeightedServiceCounterScheduler,
    make_scheduler,
    run_sharded,
)
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import poisson_arrivals
from repro.workloads import TenantRequest, TenantStream, TenantWorkloadSpec


def _fleet_config(count=2, scheduler=None, weights=None, max_batch=4):
    return ClusterConfig([ReplicaSpec(
        get_platform("spr"), get_model("llama2-7b"), count=count,
        max_batch=max_batch, scheduler=scheduler,
        scheduler_weights=weights)])


def _tenant_stream(count=200, rate=4.0, users=5, seed=17):
    spec = TenantWorkloadSpec(users=users, apps=2,
                              input_len_range=(16, 64),
                              output_len_range=(16, 48))
    return TenantStream(spec=spec, rate_per_s=rate, count=count, seed=seed)


def _queued(user, ready_s=0.0):
    class Entry:
        def __init__(self):
            self.ready_s = ready_s
            self.request = TenantRequest(request_id=0, arrival_s=ready_s,
                                         input_len=10, output_len=20,
                                         user_id=user)
    return Entry()


class TestFCFSParity:
    """scheduler=None and scheduler="fcfs" are the same simulation."""

    def test_cluster_bit_identical(self):
        stream = _tenant_stream()
        plain = ClusterSimulator(_fleet_config(scheduler=None).build_fleet(),
                                 RoundRobinRouter()).run(stream.full())
        explicit = ClusterSimulator(
            _fleet_config(scheduler="fcfs").build_fleet(),
            RoundRobinRouter()).run(stream.full())
        assert plain.completed == explicit.completed
        assert plain.makespan_s == explicit.makespan_s
        assert plain.queue_depth_timeline == explicit.queue_depth_timeline
        for a, b in zip(plain.node_stats, explicit.node_stats):
            assert (a.busy_s, a.iterations, a.completed) == \
                   (b.busy_s, b.iterations, b.completed)

    def test_anonymous_arrivals_unaffected(self):
        # No tenants configured at all: the legacy workload through the
        # "fcfs" spelling still reproduces the default path.
        arrivals = poisson_arrivals(2.0, 60, seed=3)
        plain = ClusterSimulator(_fleet_config().build_fleet(),
                                 RoundRobinRouter()).run(iter(arrivals))
        explicit = ClusterSimulator(
            _fleet_config(scheduler="fcfs").build_fleet(),
            RoundRobinRouter()).run(iter(arrivals))
        assert plain.completed == explicit.completed

    def test_node_stats_name_the_scheduler(self):
        stream = _tenant_stream(count=40)
        report = ClusterSimulator(
            _fleet_config(scheduler="vtc").build_fleet(),
            RoundRobinRouter()).run(stream.full())
        assert all(s.scheduler == "vtc" for s in report.node_stats)
        plain = ClusterSimulator(_fleet_config().build_fleet(),
                                 RoundRobinRouter()).run(stream.full())
        assert all(s.scheduler == "fcfs" for s in plain.node_stats)


class TestFastForwardComposition:
    @pytest.mark.parametrize("scheduler", ["vtc", "wsc"])
    def test_exact_vs_fast_parity(self, scheduler, monkeypatch):
        runs = []
        fast_forward = ReplicaNode._fast_forward

        def counting(node, *args):
            runs.append(node.name)
            fast_forward(node, *args)

        monkeypatch.setattr(ReplicaNode, "_fast_forward", counting)
        stream = _tenant_stream(count=150, rate=6.0)
        fast = ClusterSimulator(
            _fleet_config(scheduler=scheduler).build_fleet(),
            RoundRobinRouter()).run(stream.full())
        assert runs  # the fast leg coalesces
        runs.clear()
        exact = ClusterSimulator(
            _fleet_config(scheduler=scheduler).build_fleet(),
            RoundRobinRouter(), exact=True).run(stream.full())
        assert runs == []  # the exact leg steps every iteration
        assert len(fast.completed) == len(exact.completed)
        for a, b in zip(fast.completed, exact.completed):
            assert a.request_id == b.request_id
            assert a.finish_s == pytest.approx(b.finish_s, rel=1e-9)
            assert a.first_token_s == pytest.approx(b.first_token_s,
                                                    rel=1e-9)
        for a, b in zip(fast.node_stats, exact.node_stats):
            assert a.iterations == b.iterations
            assert a.generated_tokens == b.generated_tokens


class TestShardedComposition:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_vtc_bit_identical_across_workers(self, workers):
        stream = _tenant_stream(count=200, rate=6.0)
        config = _fleet_config(count=4, scheduler="vtc")
        router = ShardRouter(4)
        baseline = run_sharded(config, router, stream, workers=1)
        sharded = run_sharded(config, router, stream, workers=workers)
        assert baseline.completed == sharded.completed
        assert baseline.makespan_s == sharded.makespan_s
        assert baseline.queue_depth_timeline == sharded.queue_depth_timeline


class TestVTCMechanics:
    def test_prefers_least_served_tenant(self):
        vtc = VirtualTokenCounterScheduler()
        vtc.counters = {0: 500.0, 1: 10.0}
        pending = [_queued(0), _queued(1)]
        assert vtc.pick(pending, now=1.0) == 1

    def test_ready_prefix_only(self):
        vtc = VirtualTokenCounterScheduler()
        vtc.counters = {0: 500.0, 1: 10.0}
        # Tenant 1's request is not ready yet: FCFS among the ready.
        pending = [_queued(0, ready_s=0.0), _queued(1, ready_s=5.0)]
        assert vtc.pick(pending, now=1.0) == 0

    def test_work_conserving(self):
        vtc = VirtualTokenCounterScheduler()
        assert vtc.pick([_queued(3)], now=0.0) == 0
        assert vtc.pick([], now=0.0) is None

    def test_charges_prefill_then_decode(self):
        vtc = VirtualTokenCounterScheduler()
        request = _queued(7).request
        vtc.on_arrival(request, 0.0)
        vtc.on_admit(request, 0.0)
        assert vtc.counters[7] == pytest.approx(10.0)     # input_len
        vtc.on_finish(request)
        assert vtc.counters[7] == pytest.approx(10.0 + 2.0 * 20)

    def test_lift_rule_on_idle_return(self):
        vtc = VirtualTokenCounterScheduler()
        busy = _queued(1).request
        vtc.on_arrival(busy, 0.0)
        vtc.counters[1] = 300.0
        # Tenant 2 was idle; its counter lifts to the active floor
        # rather than entering at 0 with banked credit.
        newcomer = _queued(2).request
        vtc.on_arrival(newcomer, 1.0)
        assert vtc.counters[2] == pytest.approx(300.0)

    def test_lift_never_lowers(self):
        vtc = VirtualTokenCounterScheduler()
        vtc.counters = {2: 900.0}
        busy = _queued(1).request
        vtc.on_arrival(busy, 0.0)
        vtc.counters[1] = 300.0
        returning = _queued(2).request
        vtc.on_arrival(returning, 1.0)
        assert vtc.counters[2] == pytest.approx(900.0)

    def test_tie_breaks_by_readiness_order(self):
        vtc = VirtualTokenCounterScheduler()
        pending = [_queued(0, ready_s=0.0), _queued(1, ready_s=0.5)]
        # Equal (zero) counters: earlier-ready request wins.
        assert vtc.pick(pending, now=1.0) == 0


class TestWSCMechanics:
    def test_weight_discounts_charge(self):
        wsc = WeightedServiceCounterScheduler(weights={7: 4.0})
        request = _queued(7).request
        wsc.on_arrival(request, 0.0)
        wsc.on_admit(request, 0.0)
        assert wsc.counters[7] == pytest.approx(10.0 / 4.0)

    def test_unlisted_tenant_weighs_one(self):
        wsc = WeightedServiceCounterScheduler(weights={7: 4.0})
        request = _queued(3).request
        wsc.on_arrival(request, 0.0)
        wsc.on_admit(request, 0.0)
        assert wsc.counters[3] == pytest.approx(10.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedServiceCounterScheduler(weights={0: 0.0})


class TestMakeScheduler:
    def test_none_means_builtin_loop(self):
        assert make_scheduler(None) is None

    def test_spellings(self):
        assert make_scheduler("fcfs") is None
        assert isinstance(make_scheduler("vtc"),
                          VirtualTokenCounterScheduler)
        assert isinstance(make_scheduler("wsc"),
                          WeightedServiceCounterScheduler)

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown admission scheduler"):
            make_scheduler("priority")

    def test_replica_spec_validates_eagerly(self):
        with pytest.raises(ValueError):
            _fleet_config(scheduler="lottery")

    def test_fresh_instance_per_node(self):
        fleet = _fleet_config(count=3, scheduler="vtc").build_fleet()
        schedulers = [node.admission for node in fleet]
        assert len({id(s) for s in schedulers}) == 3
