"""Fleet-level metrics for cluster simulations.

A :class:`ClusterReport` aggregates what the event loop observed:
per-replica utilization, queue-depth timelines, requeue/wasted-work
accounting from failures, and the fleet's cost. SLO scoring reuses the
single-node machinery — :meth:`ClusterReport.to_serving_report` adapts
the fleet outcome so :func:`repro.serving.slo.attainment` and
:func:`~repro.serving.slo.goodput` apply unchanged.
"""

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.analysis.cost import price_rate
from repro.cluster.events import ClusterEvent
from repro.serving.arrivals import (
    ArrivingRequest,
    CompletedRequest,
    ServingReport,
)
from repro.serving.slo import SLO
from repro.serving.slo import attainment as _attainment
from repro.serving.slo import goodput as _goodput
from repro.utils.stats import mean

#: Amortization window for converting listing prices into $/token: the
#: 3-year depreciation schedule common for datacenter accelerators.
AMORTIZATION_YEARS = 3.0
_SECONDS_PER_YEAR = 365.0 * 24 * 3600


def dollars_per_mtok(price_usd: float, seconds: float, tokens: float) -> float:
    """Hardware $ per million tokens: *price_usd* amortized over
    :data:`AMORTIZATION_YEARS`, *seconds* of it charged to *tokens*
    (``inf`` for none) — the paper's listing-price cost proxy."""
    if tokens <= 0:
        return math.inf
    return (price_usd / (AMORTIZATION_YEARS * _SECONDS_PER_YEAR)
            * seconds / tokens * 1e6)


@dataclasses.dataclass(frozen=True)
class NodeStats:
    """One replica's share of a cluster run.

    Attributes:
        name / platform: Replica identification.
        busy_s: Seconds spent prefilling or decoding.
        utilization: ``busy_s`` over the fleet makespan.
        iterations: Scheduler iterations executed.
        completed: Requests finished on this replica.
        generated_tokens: Tokens produced here.
        peak_queue: Deepest unadmitted queue observed.
        failed / drained: Lifecycle outcome flags.
        scheduler: Admission policy the replica ran ("fcfs" when none
            was configured — the built-in loop).
        model: Served model's display name ("" for legacy reports built
            before fleets mixed models).
        backend: Execution-backend label ("bf16" is the plain default).
        price_usd: Per-replica listing-price override
            (:class:`~repro.cluster.config.ReplicaSpec` ``price_usd``);
            ``None`` defers to the platform's recorded listing price.
    """

    name: str
    platform: str
    busy_s: float
    utilization: float
    iterations: int
    completed: int
    generated_tokens: int
    peak_queue: int
    failed: bool = False
    drained: bool = False
    scheduler: str = "fcfs"
    model: str = ""
    backend: str = "bf16"
    price_usd: Optional[float] = None

    @property
    def tier(self) -> Tuple[str, str, str]:
        """The (model, platform, backend) triple — the replica's tier."""
        return (self.model, self.platform, self.backend)


@dataclasses.dataclass(frozen=True)
class ClusterReport:
    """Outcome of one cluster simulation.

    Attributes:
        router: Routing policy name.
        completed: Per-request records, completion order (fleet-wide).
        node_stats: Per-replica accounting, fleet order.
        makespan_s: Last completion time.
        generated_tokens: Tokens produced fleet-wide (useful work only).
        wasted_tokens: Tokens generated then lost to node failures.
        requeued_requests: Requests rescued and rerouted after failures.
        queue_depth_timeline: (time, fleet unadmitted queue) samples,
            one per event-loop step.
        cluster_events: Structured log of failures, drains, and scalings
            (:class:`~repro.cluster.events.ClusterEvent`).
        router_counters: Integer decision counters snapshotted from the
            routing policy (:meth:`repro.cluster.router.Router.counters`)
            — e.g. the tiered router's per-class routed/spill/fallback
            counts. Empty for policies that report none; sharded runs
            merge per-group counters by summation, so the counts are
            bit-identical for any worker count.

    ``completed`` is never empty: both runners raise ``ValueError`` on
    an empty arrival stream and the event loop refuses to lose requests,
    so the latency statistics below are always defined (and
    :mod:`repro.utils.stats` raises a descriptive error rather than
    guessing if a hand-built report breaks that invariant).
    """

    router: str
    completed: List[CompletedRequest]
    node_stats: List[NodeStats]
    makespan_s: float
    generated_tokens: int
    wasted_tokens: int
    requeued_requests: int
    queue_depth_timeline: List[Tuple[float, int]]
    cluster_events: List[ClusterEvent] = dataclasses.field(
        default_factory=list)
    router_counters: Dict[str, int] = dataclasses.field(
        default_factory=dict)

    @property
    def throughput(self) -> float:
        """Useful generated tokens per second over the makespan."""
        return self.generated_tokens / self.makespan_s

    @property
    def mean_ttft_s(self) -> float:
        """Fleet-wide mean arrival-to-first-token latency."""
        return mean([r.ttft_s for r in self.completed])

    @property
    def fleet_price_usd(self) -> float:
        """Listing-price total over every replica ever provisioned.

        Per-replica ``price_usd`` overrides win; otherwise the
        platform's recorded listing price, with unknown platforms
        priced at the median under a one-time warning
        (:func:`repro.analysis.cost.price_rate`).
        """
        return sum(price_rate(stats.platform, stats.price_usd)
                   for stats in self.node_stats)

    def to_serving_report(self) -> ServingReport:
        """Adapt to :class:`ServingReport` for the SLO machinery."""
        return ServingReport(
            policy=f"cluster/{self.router}",
            completed=self.completed,
            makespan_s=self.makespan_s,
            generated_tokens=self.generated_tokens,
        )

    def attainment(self, arrivals: List[ArrivingRequest], slo: SLO) -> float:
        """Fraction of requests meeting *slo* (fleet-wide)."""
        return _attainment(self.to_serving_report(), arrivals, slo)

    def goodput(self, arrivals: List[ArrivingRequest], slo: SLO) -> float:
        """Tokens/s counting only SLO-compliant requests."""
        return _goodput(self.to_serving_report(), arrivals, slo)

    def dollars_per_million_tokens(self) -> float:
        """Fleet hardware cost per million useful tokens over the makespan
        (:func:`dollars_per_mtok`) — the figure
        :func:`repro.optim.advisor.recommend_fleet` ranks fleets by,
        measured on a simulated trace instead of a capacity bound."""
        return dollars_per_mtok(self.fleet_price_usd, self.makespan_s,
                                self.generated_tokens)
