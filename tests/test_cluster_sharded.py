"""Property-style parity: sharded cluster simulation vs single-process.

``run_sharded`` partitions a ShardRouter-routed fleet into replica
groups, simulates each group in a worker process, and merges the
per-group streams back into one ClusterReport. These tests drive random
fleets, local routers, and failure/drain schedules through workers in
{1, 2, 4} and require the *same simulation*: integer accounting
bit-equal (queue-depth timeline included), merged event logs identical,
and every timing field within 1e-9 relative. The splittable arrival
generators and sharded exact mode — the other halves of the sharding
contract — are pinned here too.
"""

import itertools
import math
import random

import pytest

from repro.cluster import (
    ClusterConfig,
    JoinShortestQueueRouter,
    LeastOutstandingTokensRouter,
    NodeDrain,
    NodeFailure,
    ReplicaNode,
    ReplicaSpec,
    RoundRobinRouter,
    ShardRouter,
    run_sharded,
    warm_caches,
)
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import (
    iter_bursty_arrivals,
    iter_poisson_arrivals,
    poisson_arrivals,
)
from repro.workloads.generator import WorkloadSpec
from repro.workloads.streams import ShardableStream

SPR = get_platform("spr")
ICL = get_platform("icl")
LLAMA = get_model("llama2-7b")
OPT = get_model("opt-1.3b")

REL = 1e-9


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def decode_heavy_spec():
    return WorkloadSpec(name="agentic", input_len_range=(16, 64),
                        output_len_range=(96, 192), batch_size=1,
                        priority_metric="tpot_s")


def assert_reports_identical(base, other):
    """Every ClusterReport field: integers/logs bit-equal, timings 1e-9."""
    assert other.router == base.router
    assert other.generated_tokens == base.generated_tokens
    assert other.wasted_tokens == base.wasted_tokens
    assert other.requeued_requests == base.requeued_requests
    assert close(other.makespan_s, base.makespan_s)

    assert len(other.node_stats) == len(base.node_stats)
    for b, o in zip(base.node_stats, other.node_stats):
        assert (b.name, b.platform, b.iterations, b.completed,
                b.generated_tokens, b.peak_queue, b.failed, b.drained) == \
               (o.name, o.platform, o.iterations, o.completed,
                o.generated_tokens, o.peak_queue, o.failed, o.drained)
        assert close(b.busy_s, o.busy_s)
        assert close(b.utilization, o.utilization)

    # The administrative record must merge back identically: same events
    # in the same order with bit-equal stamps, and the fleet queue-depth
    # timeline — reconstructed from per-group delta logs — bit-equal.
    assert [(ev.kind, ev.node, ev.time_s, dict(ev.details))
            for ev in other.cluster_events] == \
           [(ev.kind, ev.node, ev.time_s, dict(ev.details))
            for ev in base.cluster_events]
    assert other.queue_depth_timeline == base.queue_depth_timeline

    assert len(other.completed) == len(base.completed)
    for b, o in zip(base.completed, other.completed):
        assert b.request_id == o.request_id
        assert b.arrival_s == o.arrival_s
        assert close(b.start_s, o.start_s)
        assert close(b.first_token_s, o.first_token_s)
        assert close(b.finish_s, o.finish_s)


def random_scenario(seed):
    """A seeded (config, router factory, stream, events) draw."""
    rng = random.Random(seed)
    groups = rng.choice([2, 3, 4])
    # Two replicas per group, and failure/drain target different groups,
    # so every group keeps a routable replica (a group losing all its
    # replicas is fatal in the single-process path too — not a parity
    # question).
    size = groups * 2
    model = rng.choice([OPT, LLAMA])
    config = ClusterConfig([ReplicaSpec(SPR, model, count=size,
                                        max_batch=rng.choice([2, 4]))])
    local = rng.choice([RoundRobinRouter, JoinShortestQueueRouter,
                        LeastOutstandingTokensRouter])
    spec = decode_heavy_spec() if rng.random() < 0.5 else None
    stream = ShardableStream(rate_per_s=rng.choice([1.0, 2.0, 4.0]),
                             count=rng.choice([60, 120]), spec=spec,
                             burst_rate_per_s=8.0 if rng.random() < 0.3
                             else None, seed=seed)
    names = config.replica_names()
    events = []
    if rng.random() < 0.7:
        events.append(NodeFailure(time_s=rng.uniform(2.0, 30.0),
                                  node=rng.choice(names[0::groups])))
    if rng.random() < 0.5:
        events.append(NodeDrain(time_s=rng.uniform(5.0, 40.0),
                                node=rng.choice(names[1::groups])))
    return config, lambda: ShardRouter(groups, local), stream, events


class TestShardedParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_fleets_routers_schedules(self, seed):
        config, make_router, stream, events = random_scenario(seed)
        reports = {
            workers: run_sharded(config, make_router(), stream,
                                 workers=workers, events=events)
            for workers in (1, 2, 4)}
        assert_reports_identical(reports[1], reports[2])
        assert_reports_identical(reports[1], reports[4])

    def test_materialized_arrival_list(self):
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=4, max_batch=4)])
        arrivals = poisson_arrivals(2.0, 80, decode_heavy_spec(), seed=11)
        reports = [run_sharded(config, ShardRouter(2), list(arrivals),
                               workers=workers) for workers in (1, 2)]
        assert_reports_identical(reports[0], reports[1])

    def test_mixed_fleet_groups_span_specs(self):
        # Striped grouping puts one SPR and one ICL replica in each
        # group; workers must rebuild the right spec per fleet index.
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=2, max_batch=4),
                                ReplicaSpec(ICL, OPT, count=2, max_batch=2)])
        stream = ShardableStream(rate_per_s=2.0, count=60,
                                 spec=decode_heavy_spec(), seed=5)
        base = run_sharded(config, ShardRouter(2), stream, workers=1)
        sharded = run_sharded(config, ShardRouter(2), stream, workers=2)
        assert_reports_identical(base, sharded)
        assert {s.platform for s in sharded.node_stats} == \
               {SPR.name, ICL.name}

    def test_empty_groups_are_legal(self):
        # Two arrivals door to groups 0 and 1 of four; groups 2 and 3
        # simulate nothing (but still dispatch their schedule slice).
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=4, max_batch=4)])
        stream = ShardableStream(rate_per_s=1.0, count=2, seed=3)
        names = config.replica_names()
        events = [NodeDrain(time_s=1.0, node=names[2])]
        base = run_sharded(config, ShardRouter(4), stream, workers=1,
                           events=events)
        sharded = run_sharded(config, ShardRouter(4), stream, workers=4,
                              events=events)
        assert_reports_identical(base, sharded)
        assert len(base.completed) == 2

    def test_failure_requeues_stay_in_group(self):
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=4, max_batch=2)])
        stream = ShardableStream(rate_per_s=4.0, count=80,
                                 spec=decode_heavy_spec(), seed=9)
        events = [NodeFailure(time_s=6.0, node=config.replica_names()[0])]
        base = run_sharded(config, ShardRouter(2), stream, workers=1,
                           events=events)
        sharded = run_sharded(config, ShardRouter(2), stream, workers=2,
                              events=events)
        assert base.requeued_requests > 0
        assert_reports_identical(base, sharded)


class TestShardRouterContract:
    def test_too_few_replicas(self):
        nodes = [ReplicaNode("spr-0", SPR, OPT, max_batch=2)]
        router = ShardRouter(2)
        request = poisson_arrivals(1.0, 1, seed=0)[0]
        with pytest.raises(ValueError, match="at least 2 replicas"):
            router.select(request, nodes, 0.0)

    def test_static_fleet_enforced(self):
        nodes = [ReplicaNode(f"spr-{i}", SPR, OPT, max_batch=2)
                 for i in range(3)]
        router = ShardRouter(2)
        request = poisson_arrivals(1.0, 2, seed=0)[0]
        router.select(request, nodes, 0.0)
        with pytest.raises(RuntimeError, match="static fleet"):
            router.select(request, nodes[:2], 0.0)

    def test_requires_at_least_one_group(self):
        with pytest.raises(ValueError, match="num_groups"):
            ShardRouter(0)

    def test_door_is_pure_and_striping_covers_fleet(self):
        router = ShardRouter(3)
        request = poisson_arrivals(1.0, 7, seed=1)[6]
        assert router.door(request) == request.request_id % 3
        indices = sorted(itertools.chain.from_iterable(
            router.group_indices(8, group) for group in range(3)))
        assert indices == list(range(8))

    def test_run_sharded_validation(self):
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=2, max_batch=2)])
        stream = ShardableStream(rate_per_s=1.0, count=4, seed=0)
        with pytest.raises(TypeError, match="ShardRouter"):
            run_sharded(config, RoundRobinRouter(), stream)
        with pytest.raises(ValueError, match="cannot fill"):
            run_sharded(config, ShardRouter(4), stream)
        with pytest.raises(ValueError, match="workers"):
            run_sharded(config, ShardRouter(2), stream, workers=0)
        with pytest.raises(KeyError, match="no replica named"):
            run_sharded(config, ShardRouter(2), stream,
                        events=[NodeFailure(time_s=1.0, node="nope-9")])
        with pytest.raises(TypeError, match="Materialize"):
            run_sharded(config, ShardRouter(2),
                        iter_poisson_arrivals(1.0, count=4), workers=2)


class TestSplittableStreams:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_poisson_union_bit_equal(self, num_shards):
        full = list(iter_poisson_arrivals(2.0, count=100, seed=13))
        union = sorted(
            (request for shard in range(num_shards)
             for request in iter_poisson_arrivals(2.0, count=100, seed=13,
                                                  shard=shard,
                                                  num_shards=num_shards)),
            key=lambda r: r.request_id)
        assert union == full

    def test_bursty_union_bit_equal(self):
        kwargs = dict(count=80, duration_s=120.0, seed=7,
                      spec=decode_heavy_spec())
        full = list(iter_bursty_arrivals(0.5, 6.0, **kwargs))
        union = sorted(
            (request for shard in range(3)
             for request in iter_bursty_arrivals(0.5, 6.0, shard=shard,
                                                 num_shards=3, **kwargs)),
            key=lambda r: r.request_id)
        assert union == full

    def test_shard_stream_ids_are_positions(self):
        stream = ShardableStream(rate_per_s=2.0, count=50, seed=21)
        for shard in range(4):
            for request in stream.shard(shard, 4):
                assert request.request_id % 4 == shard
        assert [r.request_id for r in stream.full()] == list(range(50))

    def test_shard_bounds_validated(self):
        with pytest.raises(ValueError, match="shard"):
            next(iter_poisson_arrivals(1.0, count=4, shard=2, num_shards=2))
        with pytest.raises(ValueError, match="num_shards"):
            next(iter_poisson_arrivals(1.0, count=4, shard=0, num_shards=0))


class TestWarmCaches:
    def test_populates_shared_cost_tables(self):
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=2, max_batch=3)])
        warm_caches(config, kv_horizon=32)
        table = ReplicaNode("spr", SPR, OPT, 3).cost_table
        # Every batch size a replica of this spec can run is pre-priced.
        for batch in (1, 2, 3):
            assert table.range_cost(batch, 1, 33)[0] > 0.0


class TestShardedExact:
    """Worker processes run the per-step reference loop unchanged."""

    def test_sharded_exact_matches_single_process(self):
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=2, max_batch=4)])
        stream = ShardableStream(rate_per_s=1.0, count=40,
                                 spec=decode_heavy_spec(), seed=17)
        base = run_sharded(config, ShardRouter(2), stream, workers=1,
                           exact=True)
        sharded = run_sharded(config, ShardRouter(2), stream, workers=2,
                              exact=True)
        assert_reports_identical(base, sharded)
