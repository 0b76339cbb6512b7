"""Tiered routing across heterogeneous multi-model fleets.

Pins the tiering subsystem's contracts: the deterministic class
mix (parsing, classification, shard-aligned streams), the
TieredRouter's class→tier mapping with upward spill and downward
fallback, per-replica price overrides (including the
PhaseAwareRouter banding regression the silent median fallback used
to hide), mixed-model cost-table isolation, and bit-identical
sharded execution of heterogeneous fleets across worker counts.
"""

import math
import warnings

import pytest

from repro.analysis import cost
from repro.analysis.cost import list_price, median_list_price, price_rate
from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    JoinShortestQueueRouter,
    NodeDrain,
    NodeFailure,
    PhaseAwareRouter,
    ReplicaNode,
    ReplicaSpec,
    ShardRouter,
    TieredRouter,
    fluid,
    run_sharded,
    tier_label,
    tiering_report,
)
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import ArrivingRequest
from repro.workloads import (
    DEFAULT_CLASS_MIX,
    REQUEST_CLASSES,
    ClassMixStream,
    MixClassifier,
    parse_class_mix,
)
from tests.test_cluster_sharded import assert_reports_identical

SPR = get_platform("spr")
ICL = get_platform("icl")
LLAMA7 = get_model("llama2-7b")
LLAMA13 = get_model("llama2-13b")
OPT = get_model("opt-1.3b")


def id_of_class(name, classifier=None, limit=10_000):
    """Smallest request id the classifier maps to *name*."""
    classifier = classifier or MixClassifier()
    for request_id in range(limit):
        if classifier.class_of(request_id) == name:
            return request_id
    raise AssertionError(f"no id classified {name!r} in [0, {limit})")


def request_of_class(name, arrival_s=0.0):
    rc = REQUEST_CLASSES[name]
    return ArrivingRequest(request_id=id_of_class(name),
                           arrival_s=arrival_s,
                           input_len=rc.input_len_range[0],
                           output_len=rc.output_len_range[1])


def tiered_fleet():
    """The canonical 2-tier fleet: cheap ICL-7B + capable SPR-13B."""
    return [ReplicaNode("icl-0", ICL, LLAMA7, max_batch=4),
            ReplicaNode("icl-1", ICL, LLAMA7, max_batch=4),
            ReplicaNode("spr-0", SPR, LLAMA13, max_batch=4),
            ReplicaNode("spr-1", SPR, LLAMA13, max_batch=4)]


class TestClassMix:
    def test_parse_weighted(self):
        mix = parse_class_mix("simple:2,reasoning:1")
        assert mix == (("simple", 2 / 3), ("reasoning", 1 / 3))

    def test_parse_equal_shares(self):
        mix = parse_class_mix("simple,standard")
        assert mix == (("simple", 0.5), ("standard", 0.5))

    @pytest.mark.parametrize("text,match", [
        ("nosuch:1", "unknown request class"),
        ("simple:0", "must be > 0"),
        ("simple,simple", "duplicate"),
        ("", "empty class mix"),
    ])
    def test_parse_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_class_mix(text)

    def test_classifier_is_pure(self):
        classifier = MixClassifier()
        first = [classifier.class_of(i) for i in range(500)]
        assert [MixClassifier().class_of(i) for i in range(500)] == first
        assert set(first) == set(REQUEST_CLASSES)

    def test_classifier_tracks_shares(self):
        classifier = MixClassifier()
        counts = {name: 0 for name in REQUEST_CLASSES}
        total = 20_000
        for i in range(total):
            counts[classifier.class_of(i)] += 1
        for name, share in DEFAULT_CLASS_MIX:
            assert counts[name] / total == pytest.approx(share, abs=0.02)

    def test_classifier_validates_mix(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixClassifier((("simple", 0.5),))
        with pytest.raises(ValueError, match="unknown request class"):
            MixClassifier((("nosuch", 1.0),))
        # Shares that sum to 1 but are negative or repeat a class once
        # reached the fluid solver (1.5x the offered traffic; attainment 2).
        with pytest.raises(ValueError, match="share must be >= 0"):
            MixClassifier((("simple", 1.5), ("standard", -0.5)))
        with pytest.raises(ValueError, match="duplicate class"):
            MixClassifier((("simple", 0.5), ("simple", 0.5)))

    def test_shapes_follow_class_ranges(self):
        stream = ClassMixStream(rate_per_s=4.0, count=300, seed=3)
        classifier = stream.classifier()
        for request in stream.full():
            rc = REQUEST_CLASSES[classifier(request)]
            low, high = rc.input_len_range
            assert low <= request.input_len <= high
            low, high = rc.output_len_range
            assert low <= request.output_len <= high

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_shard_union_bit_equal(self, num_shards):
        stream = ClassMixStream(rate_per_s=2.0, count=120, seed=11)
        full = list(stream.full())
        union = sorted(
            (request for shard in range(num_shards)
             for request in stream.shard(shard, num_shards)),
            key=lambda request: request.request_id)
        assert union == full

    def test_spec_envelope_covers_all_classes(self):
        spec = ClassMixStream(rate_per_s=1.0, count=1).spec
        assert spec.input_len_range[1] == max(
            rc.input_len_range[1] for rc in REQUEST_CLASSES.values())
        assert spec.output_len_range[1] == max(
            rc.output_len_range[1] for rc in REQUEST_CLASSES.values())


class TestTieredRouter:
    def test_simple_homes_on_cheap_tier(self):
        router = TieredRouter()
        node = router.select(request_of_class("simple"), tiered_fleet(), 0.0)
        assert node.tier == (LLAMA7.name, ICL.name, "bf16")
        assert router.counters()["served:simple:" + tier_label(node.tier)] == 1

    def test_reasoning_respects_capability_floor(self):
        # The 7B tier is cheaper and unloaded, but under the 10B floor.
        router = TieredRouter()
        node = router.select(request_of_class("reasoning"), tiered_fleet(),
                             0.0)
        assert node.model.name == LLAMA13.name
        assert "fallback:reasoning" not in router.counters()

    def test_spill_on_saturated_home_tier(self):
        fleet = tiered_fleet()
        router = TieredRouter()
        request = request_of_class("simple")
        # Pile enough work on both cheap replicas that their projected
        # TTFT breaks simple's 2 s bar.
        heavy = request_of_class("reasoning")
        bar = REQUEST_CLASSES["simple"].slo.ttft_s
        for node in fleet[:2]:
            while node.backlog_s(0.0) <= bar:
                node.submit(heavy)
        before = router.counters().get("spill:simple", 0)
        node = router.select(request, fleet, 0.0)
        assert node.platform.name == SPR.name
        assert router.counters()["spill:simple"] == before + 1

    def test_fallback_when_no_capable_tier(self):
        # 7B-only fleet: every reasoning request routes below its floor.
        fleet = [ReplicaNode("icl-0", ICL, LLAMA7, max_batch=4)]
        router = TieredRouter()
        node = router.select(request_of_class("reasoning"), fleet, 0.0)
        assert node.model.name == LLAMA7.name
        assert router.counters()["fallback:reasoning"] == 1

    def test_fallback_on_tier_outage_mid_run(self):
        # Both capable replicas fail early; later reasoning arrivals
        # must fall back to the surviving cheap tier, counted per class.
        stream = ClassMixStream(rate_per_s=2.0, count=80, seed=5)
        router = TieredRouter(stream.classifier())
        events = [NodeFailure(time_s=1.0, node="spr-0"),
                  NodeFailure(time_s=1.0, node="spr-1")]
        report = ClusterSimulator(tiered_fleet(), router,
                                  events=events).run(stream.full())
        assert report.router_counters.get("fallback:reasoning", 0) > 0
        assert len(report.completed) == 80
        # And the accounting surfaces it per class.
        scored = tiering_report(report, stream.full(), stream.classifier())
        assert scored.fallbacks == report.router_counters[
            "fallback:reasoning"] + report.router_counters.get(
            "fallback:standard", 0) + report.router_counters.get(
            "fallback:simple", 0)

    def test_reads_each_backlog_once_per_decision(self, monkeypatch):
        # The spill loop and the earliest-finish fallback share one
        # backlog read per replica; loaded cheap replicas force both.
        reads = []
        backlog_s = ReplicaNode.backlog_s
        monkeypatch.setattr(ReplicaNode, "backlog_s", lambda node, now: (
            reads.append(node.name), backlog_s(node, now))[1])
        fleet = tiered_fleet()
        heavy = request_of_class("reasoning")
        for node in fleet:
            for _ in range(12):
                node.submit(heavy)
        router = TieredRouter()
        for name in ("simple", "standard", "reasoning"):
            reads.clear()
            router.select(request_of_class(name), fleet, 0.0)
            assert reads and len(reads) == len(set(reads)), name
        assert router.counters().get("spill:simple", 0) > 0


class TestTieringReport:
    def run_scored(self):
        stream = ClassMixStream(rate_per_s=1.5, count=120, seed=7)
        router = TieredRouter(stream.classifier())
        report = ClusterSimulator(tiered_fleet(), router).run(stream.full())
        return report, tiering_report(report, stream.full(),
                                      stream.classifier())

    def test_per_class_totals_cover_run(self):
        report, scored = self.run_scored()
        assert sum(s.completed for s in scored.classes) == \
            len(report.completed)
        for stats in scored.classes:
            assert 0 <= stats.met <= stats.completed
            assert stats.attainment == pytest.approx(
                stats.met / stats.completed if stats.completed else 1.0)

    def test_per_tier_accounting(self):
        report, scored = self.run_scored()
        assert [t.tier for t in scored.tiers] == [
            (LLAMA7.name, ICL.name, "bf16"),
            (LLAMA13.name, SPR.name, "bf16")]  # ascending price
        assert sum(t.generated_tokens for t in scored.tiers) == \
            report.generated_tokens
        assert sum(t.replicas for t in scored.tiers) == 4
        for tier in scored.tiers:
            assert 0 < tier.utilization <= 1.0
            assert not math.isinf(tier.dollars_per_mtok)

    def test_empty_tier_prices_as_inf(self):
        # A fleet with an idle tier: no tokens, inf $/Mtok, not a crash.
        fleet = tiered_fleet()
        stream = ClassMixStream(rate_per_s=1.0, count=10, seed=1,
                                mix=(("reasoning", 1.0),))
        router = TieredRouter(stream.classifier())
        report = ClusterSimulator(fleet, router).run(stream.full())
        scored = tiering_report(report, stream.full(), stream.classifier())
        idle = [t for t in scored.tiers if t.generated_tokens == 0]
        assert idle and all(math.isinf(t.dollars_per_mtok) for t in idle)

    def test_one_dollars_per_mtok_formula(self):
        # Tier, fleet and fluid $/Mtok are one formula: 3 years of
        # listing price, charged per second, per million tokens.
        config = ClusterConfig([ReplicaSpec(ICL, LLAMA7, count=2)])
        stream = ClassMixStream(rate_per_s=1.0, count=30, seed=2,
                                mix=(("simple", 1.0),))
        router = TieredRouter(stream.classifier())
        report = ClusterSimulator(config.build_fleet(), router).run(
            stream.full())
        (tier,) = tiering_report(report, stream.full(),
                                 stream.classifier()).tiers
        horizon_s = 3 * 365 * 86400
        by_hand = (tier.price_usd / horizon_s * report.makespan_s
                   / report.generated_tokens * 1e6)
        assert tier.dollars_per_mtok == by_hand
        assert report.dollars_per_million_tokens() == by_hand

        steady = fluid.solve(config, 1.0, mix=stream.mix)
        assert steady.dollars_per_mtok == (
            steady.fleet_price_usd / horizon_s
            / steady.throughput_tokens_per_s * 1e6)


class TestPriceOverrides:
    def test_price_rate_prefers_override(self):
        assert price_rate(SPR.name, 1234.0) == 1234.0
        assert price_rate(SPR.name) == list_price(SPR.name)

    def test_unknown_platform_warns_once_then_median(self, monkeypatch):
        monkeypatch.setattr(cost, "_WARNED_UNPRICED", set())
        with pytest.warns(UserWarning, match="no listing price"):
            assert price_rate("bespoke-asic") == median_list_price()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert price_rate("bespoke-asic") == median_list_price()

    def test_phase_aware_banding_honors_override(self):
        """Regression: a per-replica price must re-band cost comparisons.

        Two identical SPR replicas, the first priced 10x via the spec
        override. Before overrides existed the router priced both off
        the platform listing and kept the first (index tie-break); with
        the override honored the cheap replica must win.
        """
        request = ArrivingRequest(request_id=0, arrival_s=0.0,
                                  input_len=64, output_len=64)
        expensive = ReplicaNode("spr-0", SPR, LLAMA7, max_batch=4,
                                price_usd=10 * list_price(SPR.name))
        cheap = ReplicaNode("spr-1", SPR, LLAMA7, max_batch=4)
        router = PhaseAwareRouter()
        assert router.select(request, [expensive, cheap], 0.0) is cheap
        # Equal prices: the index tie-break keeps the first again.
        even = ReplicaNode("spr-0", SPR, LLAMA7, max_batch=4)
        assert router.select(request, [even, cheap], 0.0) is even

    def test_spec_threads_price_to_nodes_and_stats(self):
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=2, max_batch=2,
                                            price_usd=777.0)])
        fleet = config.build_fleet()
        assert [node.price_usd for node in fleet] == [777.0, 777.0]
        report = ClusterSimulator(fleet, JoinShortestQueueRouter()).run(
            ClassMixStream(rate_per_s=2.0, count=6, seed=0).full())
        assert all(s.price_usd == 777.0 for s in report.node_stats)
        assert report.fleet_price_usd == pytest.approx(1554.0)


class TestMixHasOneOwner:
    """The fluid ranking refuses the mixes exact confirmation refuses."""

    def test_recommend_fleet_refuses_before_ranking(self, monkeypatch):
        from repro.optim import advisor

        def confirm(*args, **kwargs):
            raise AssertionError("an unnormalized mix reached confirmation")

        monkeypatch.setattr(advisor, "measure_fleet", confirm)
        config = ClusterConfig([ReplicaSpec(ICL, LLAMA7, count=1)])
        with pytest.raises(ValueError, match="mix shares must sum to 1"):
            advisor.recommend_fleet([("icl", config)], rate_per_s=1.0,
                                    mix=(("simple", 2.0), ("standard", 1.0)))


class TestMixedModelIsolation:
    def test_disjoint_cost_tables_per_model(self):
        # Two models on one platform must warm distinct cost tables —
        # contaminated curves would silently misprice one model.
        fleet = [ReplicaNode("spr-a", SPR, LLAMA7, max_batch=2),
                 ReplicaNode("spr-b", SPR, LLAMA13, max_batch=2)]
        stream = ClassMixStream(rate_per_s=2.0, count=20, seed=2)
        ClusterSimulator(fleet, JoinShortestQueueRouter()).run(stream.full())
        table7 = fleet[0].cost_table
        table13 = fleet[1].cost_table
        assert table7 is not table13
        assert table7.range_cost(1, 1, 32)[0] != \
            table13.range_cost(1, 1, 32)[0]

    def test_mixed_fleet_per_node_pricing_differs(self):
        fleet = tiered_fleet()
        stream = ClassMixStream(rate_per_s=1.0, count=30, seed=4)
        report = ClusterSimulator(
            fleet, TieredRouter(stream.classifier())).run(stream.full())
        by_model = {}
        for stats in report.node_stats:
            if stats.generated_tokens:
                by_model.setdefault(stats.model, stats)
        # Both models produced tokens on their own curves.
        assert set(by_model) == {LLAMA7.name, LLAMA13.name}


class TestHeterogeneousShardedParity:
    def heterogeneous_config(self):
        return ClusterConfig([
            ReplicaSpec(ICL, LLAMA7, count=2, max_batch=4),
            ReplicaSpec(SPR, LLAMA13, count=2, max_batch=4)])

    def test_bit_identical_across_workers(self):
        # Striped groups: group 0 = (icl-0, spr-0), group 1 = (icl-1,
        # spr-1); the failure and drain hit different groups so each
        # keeps a routable replica.
        config = self.heterogeneous_config()
        stream = ClassMixStream(rate_per_s=2.0, count=100, seed=13)
        events = [NodeFailure(time_s=6.0, node="spr-2"),
                  NodeDrain(time_s=10.0, node="icl-1")]
        make_router = lambda: ShardRouter(
            2, lambda: TieredRouter(stream.classifier()))
        reports = {workers: run_sharded(config, make_router(), stream,
                                        workers=workers, events=events)
                   for workers in (1, 2, 4)}
        assert_reports_identical(reports[1], reports[2])
        assert_reports_identical(reports[1], reports[4])
        # assert_reports_identical predates counters: pin them too.
        assert reports[1].router_counters == reports[2].router_counters
        assert reports[1].router_counters == reports[4].router_counters
        assert sum(v for k, v in reports[1].router_counters.items()
                   if k.startswith("routed:")) >= 100

    def test_fast_matches_exact_step(self):
        stream = ClassMixStream(rate_per_s=1.5, count=60, seed=21)

        def run(exact):
            router = TieredRouter(stream.classifier())
            return ClusterSimulator(tiered_fleet(), router,
                                    exact=exact).run(stream.full())

        fast, exact = run(False), run(True)
        assert_reports_identical(exact, fast)
        assert fast.router_counters == exact.router_counters
