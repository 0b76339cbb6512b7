"""Tiered request routing for heterogeneous multi-model fleets.

The jarvis-style 3-tier matrix from the ROADMAP, made executable: each
replica in a mixed fleet serves a **tier** — its (model, platform,
backend) triple — and each request carries a **class**
(:mod:`repro.workloads.classes`) with a latency bar and a
model-capability floor. :class:`TieredRouter` maps every class to the
cheapest tier whose *measured* speed clears the class's bar:

1. **Classify** — the deterministic classifier recovers the request's
   class from its id alone (no tag on the wire).
2. **Capability cut** — tiers whose model is below the class's
   ``min_model_params`` floor are ineligible: a 1.3B model answering a
   reasoning request fast is still a wrong answer.
3. **Home tier** — among eligible tiers in ascending price order, the
   first whose *unloaded* service clears the class's bar (single-
   sequence prefill within TTFT, per-token decode within TPOT) — all
   priced off the replica's own :class:`~repro.engine.stepcost.
   DecodeCostTable`, so routing agrees bit-for-bit across fast-forward
   and exact modes.
4. **Upward spill on saturation** — if the home tier's projected TTFT
   (backlog + prefill) would break the bar, the request spills to the
   next-priciest eligible tier that is feasible *now*; if every
   eligible tier is saturated, the earliest projected finish wins
   (degrade latency, not correctness).
5. **Downward fallback on tier outage** — only when *no* capable
   replica is routable (failures/drains took the tier out) does the
   request fall below its floor, to the earliest projected finish among
   the survivors. Spills and fallbacks are counted per class and
   surface in :attr:`~repro.cluster.metrics.ClusterReport.
   router_counters`.

:func:`tiering_report` turns a finished run into per-class SLO
attainment/goodput and per-tier $/Mtok — the accounting behind the
``ext_tiering`` experiment's tiered-vs-one-size-fits-all comparison.

Shard safety: the router's only state is integer counters; decisions
read the request, the candidate replicas, and the pure classifier. As a
:class:`~repro.cluster.router.ShardRouter` local it therefore
partitions cleanly, and per-group counters merge by summation —
bit-identical for any worker count.
"""

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cost import price_rate
from repro.cluster.metrics import (
    DEFAULT_AMORTIZATION_YEARS,
    _SECONDS_PER_YEAR,
    ClusterReport,
)
from repro.cluster.node import ReplicaNode
from repro.cluster.router import Router
from repro.serving.arrivals import ArrivingRequest
from repro.serving.slo import SLO, meets
from repro.workloads.classes import (
    REQUEST_CLASSES,
    MixClassifier,
    RequestClass,
)

#: A tier identity: (model name, platform name, backend label). The
#: backend label distinguishes NUMA-placed (``bf16-snc_flat-aware``)
#: and hybrid CPU–GPU (``bf16-hyb.a100``) replicas from plain ones, so
#: mixed CPU/GPU/hybrid fleets route and account per placement.
Tier = Tuple[str, str, str]


def tier_label(tier: Tier) -> str:
    """Human/counter spelling of a tier triple."""
    model, platform, backend = tier
    return f"{model}@{platform}/{backend}"


class TieredRouter(Router):
    """Class-aware routing across a heterogeneous (multi-model) fleet.

    Args:
        classifier: Deterministic request→class hook; defaults to the
            stock mix classifier
            (:class:`repro.workloads.classes.MixClassifier`). Must be
            the same classifier the workload generated shapes with.
        classes: Class table (name → :class:`~repro.workloads.classes.
            RequestClass`); defaults to the stock 3-class matrix.

    Counters (see :meth:`counters`): ``routed:<class>`` per decision,
    ``served:<class>:<tier>`` per chosen tier, ``spill:<class>`` when
    the choice lands above the class's home tier, ``fallback:<class>``
    when a tier outage forces routing below the capability floor.
    """

    name = "tiered"

    def __init__(self, classifier: Optional[MixClassifier] = None,
                 classes: Optional[Dict[str, RequestClass]] = None):
        self.classifier = classifier if classifier is not None \
            else MixClassifier()
        self.classes = dict(classes if classes is not None
                            else REQUEST_CLASSES)
        for mixed, _ in self.classifier.mix:
            if mixed not in self.classes:
                raise ValueError(f"classifier mixes class {mixed!r} with no "
                                 f"entry in the class table "
                                 f"{sorted(self.classes)}")
        self._counters: Dict[str, int] = {}
        #: (platform name, price override) -> listing-price rate.
        self._prices: Dict[Tuple[str, Optional[float]], float] = {}

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def _bump(self, key: str) -> None:
        self._counters[key] = self._counters.get(key, 0) + 1

    def _tier_price(self, node: ReplicaNode) -> float:
        key = (node.platform.name, node.price_usd)
        price = self._prices.get(key)
        if price is None:
            price = self._prices[key] = price_rate(*key)
        return price

    def select(self, request: ArrivingRequest,
               nodes: Sequence[ReplicaNode], now: float) -> ReplicaNode:
        class_name = self.classifier(request)
        try:
            rc = self.classes[class_name]
        except KeyError:
            raise KeyError(f"classifier produced unknown class "
                           f"{class_name!r}; table: {sorted(self.classes)}")
        candidates = self.routable(nodes)
        self._bump(f"routed:{class_name}")

        tiers: Dict[Tier, List[Tuple[int, ReplicaNode]]] = {}
        for index, node in enumerate(candidates):
            tiers.setdefault(node.tier, []).append((index, node))

        steps = max(1, request.output_len - 1)
        # Each candidate's backlog, read at most once per decision.
        backlogs: Dict[int, float] = {}

        def backlog(index: int, node: ReplicaNode) -> float:
            value = backlogs.get(index)
            if value is None:
                value = backlogs[index] = node.backlog_s(now)
            return value

        def per_token(node: ReplicaNode) -> float:
            decode = node.decode_cost_s(request.input_len,
                                        request.output_len)
            return decode / steps if decode else 0.0

        # Tiers in ascending price (ties: faster per-token first, then
        # the tier key — all deterministic).
        ordered = sorted(
            tiers.items(),
            key=lambda item: (self._tier_price(item[1][0][1]),
                              per_token(item[1][0][1]), item[0]))
        eligible = [item for item in ordered
                    if item[1][0][1].model.param_count()
                    >= rc.min_model_params]

        if not eligible:
            # Downward fallback: every capable tier is out. Serve on
            # the earliest projected finish among the survivors rather
            # than drop traffic; the per-class fallback counter is the
            # operator's outage signal.
            self._bump(f"fallback:{class_name}")
            chosen = self._earliest_finish(ordered, request, backlog)
            self._bump(f"served:{class_name}:{tier_label(chosen.tier)}")
            return chosen

        home = self._home_position(eligible, rc, request, per_token)

        # Home tier first, then spill upward (pricier eligible tiers)
        # while the projected TTFT would break the class's bar.
        for position in range(home, len(eligible)):
            _, members = eligible[position]
            index, node = min(
                members, key=lambda pair: (backlog(*pair), pair[0]))
            projected_ttft = (backlog(index, node)
                              + node.prefill_cost_s(request.input_len))
            if projected_ttft <= rc.slo.ttft_s:
                if position != home:
                    self._bump(f"spill:{class_name}")
                self._bump(f"served:{class_name}:{tier_label(node.tier)}")
                return node

        # Every eligible tier saturated: degrade latency, not
        # correctness — earliest projected finish among capable tiers.
        chosen = self._earliest_finish(eligible, request, backlog)
        if chosen.tier != eligible[home][0]:
            self._bump(f"spill:{class_name}")
        self._bump(f"served:{class_name}:{tier_label(chosen.tier)}")
        return chosen

    def _home_position(self, eligible, rc: RequestClass,
                       request: ArrivingRequest, per_token) -> int:
        """Cheapest eligible tier whose unloaded service clears the bar.

        When no tier clears it even unloaded (the class's SLO outruns
        the fleet), home becomes the fastest-decoding eligible tier —
        the least-bad latency degrade.
        """
        for position, (_, members) in enumerate(eligible):
            node = members[0][1]
            if (node.prefill_cost_s(request.input_len) <= rc.slo.ttft_s
                    and per_token(node) <= rc.slo.tpot_s):
                return position
        return min(range(len(eligible)),
                   key=lambda pos: (per_token(eligible[pos][1][0][1]), pos))

    @staticmethod
    def _earliest_finish(tier_items, request: ArrivingRequest,
                         backlog) -> ReplicaNode:
        best = None
        best_key = None
        for _, members in tier_items:
            for index, node in members:
                finish = (backlog(index, node)
                          + node.prefill_cost_s(request.input_len)
                          + node.decode_cost_s(request.input_len,
                                               request.output_len))
                key = (finish, index)
                if best_key is None or key < best_key:
                    best, best_key = node, key
        return best


# -- per-class / per-tier accounting ---------------------------------------


@dataclasses.dataclass(frozen=True)
class ClassStats:
    """One request class's share of a cluster run.

    Attributes:
        name: Class name.
        slo: The class's latency bar.
        completed: Requests of this class that finished.
        met: Of those, how many met the class's SLO.
        attainment: ``met / completed`` (1.0 for an empty class).
        goodput: SLO-compliant tokens/s of this class over the makespan.
        mean_ttft_s: Mean arrival-to-first-token latency.
        spills: Requests routed above the class's home tier.
        fallbacks: Requests routed below the capability floor (outage).
    """

    name: str
    slo: SLO
    completed: int
    met: int
    attainment: float
    goodput: float
    mean_ttft_s: float
    spills: int
    fallbacks: int


@dataclasses.dataclass(frozen=True)
class TierStats:
    """One (model, platform, backend) tier's share of a cluster run.

    Attributes:
        tier: The tier triple.
        replicas: Replica count in the tier.
        price_usd: Listing-price total over the tier's replicas
            (per-replica overrides honored).
        generated_tokens: Useful tokens the tier produced.
        busy_s: Summed busy seconds across the tier's replicas.
        utilization: Tier busy share of ``replicas x makespan``.
        dollars_per_mtok: The tier's amortized hardware $ per million
            of *its own* tokens (``inf`` for a tier that produced none).
    """

    tier: Tier
    replicas: int
    price_usd: float
    generated_tokens: int
    busy_s: float
    utilization: float
    dollars_per_mtok: float

    @property
    def label(self) -> str:
        return tier_label(self.tier)


@dataclasses.dataclass(frozen=True)
class TieringReport:
    """Per-class and per-tier breakdown of a tiered cluster run.

    Attributes:
        classes: Per-class stats, classifier mix order.
        tiers: Per-tier stats, ascending price order.
        attainment: Fleet-wide fraction of requests meeting *their own
            class's* SLO (unlike :meth:`ClusterReport.attainment`,
            which scores one SLO for everything).
        goodput: Fleet-wide SLO-compliant tokens/s.
        dollars_per_mtok: Whole-fleet amortized $ per million useful
            tokens.
        spills / fallbacks: Fleet totals of the router's counters.
    """

    classes: List[ClassStats]
    tiers: List[TierStats]
    attainment: float
    goodput: float
    dollars_per_mtok: float
    spills: int
    fallbacks: int


def tiering_report(report: ClusterReport, arrivals, classifier,
                   classes: Optional[Dict[str, RequestClass]] = None,
                   amortization_years: float = DEFAULT_AMORTIZATION_YEARS,
                   ) -> TieringReport:
    """Score a finished run per class and per tier.

    *arrivals* is the request stream (list or regenerable iterator —
    the per-class SLO check needs each request's shape), *classifier*
    the deterministic class hook shared with the workload/router.
    Works for any run over a mixed-class stream, whatever the router:
    scoring a JSQ one-size-fits-all fleet with the same classifier is
    exactly how ``ext_tiering`` builds its matched-SLO baseline.
    """
    table = dict(classes if classes is not None else REQUEST_CLASSES)
    by_id = {request.request_id: request for request in arrivals}

    per_class: Dict[str, Dict[str, float]] = {
        name: {"completed": 0, "met": 0, "tokens_met": 0, "ttft_sum": 0.0}
        for name in table}
    for record in report.completed:
        request = by_id[record.request_id]
        name = classifier(request)
        rc = table[name]
        bucket = per_class[name]
        bucket["completed"] += 1
        bucket["ttft_sum"] += record.ttft_s
        if meets(record, request, rc.slo):
            bucket["met"] += 1
            bucket["tokens_met"] += request.output_len

    makespan = report.makespan_s
    counters = report.router_counters
    class_stats: List[ClassStats] = []
    for name, rc in table.items():
        bucket = per_class[name]
        completed = int(bucket["completed"])
        met = int(bucket["met"])
        class_stats.append(ClassStats(
            name=name, slo=rc.slo, completed=completed, met=met,
            attainment=met / completed if completed else 1.0,
            goodput=bucket["tokens_met"] / makespan if makespan else 0.0,
            mean_ttft_s=(bucket["ttft_sum"] / completed
                         if completed else 0.0),
            spills=counters.get(f"spill:{name}", 0),
            fallbacks=counters.get(f"fallback:{name}", 0),
        ))

    dollars_per_second = lambda price: price / (amortization_years
                                                * _SECONDS_PER_YEAR)
    tier_groups: Dict[Tier, List] = {}
    for stats in report.node_stats:
        tier_groups.setdefault(stats.tier, []).append(stats)
    tier_stats: List[TierStats] = []
    for tier, members in tier_groups.items():
        price = sum(price_rate(s.platform, s.price_usd) for s in members)
        tokens = sum(s.generated_tokens for s in members)
        busy = sum(s.busy_s for s in members)
        dpm = (dollars_per_second(price) * makespan / tokens * 1e6
               if tokens else math.inf)
        tier_stats.append(TierStats(
            tier=tier, replicas=len(members), price_usd=price,
            generated_tokens=tokens, busy_s=busy,
            utilization=(busy / (len(members) * makespan)
                         if makespan else 0.0),
            dollars_per_mtok=dpm))
    tier_stats.sort(key=lambda t: (t.price_usd / t.replicas, t.tier))

    total_completed = sum(s.completed for s in class_stats)
    total_met = sum(s.met for s in class_stats)
    return TieringReport(
        classes=class_stats,
        tiers=tier_stats,
        attainment=total_met / total_completed if total_completed else 1.0,
        goodput=sum(s.goodput for s in class_stats),
        dollars_per_mtok=report.dollars_per_million_tokens(
            amortization_years),
        spills=sum(s.spills for s in class_stats),
        fallbacks=sum(s.fallbacks for s in class_stats),
    )
