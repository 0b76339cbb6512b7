"""Per-tenant accounting: service, attainment, throttling, wasted work.

Fleet-level metrics (:mod:`repro.cluster.metrics`) answer "how fast was
the cluster"; this module answers "who got the capacity". It joins a
cluster run's completion records back to the tenant-tagged arrivals (by
``request_id`` — the completion side carries no tenant fields) and the
door's throttle verdicts, then reduces to per-tenant service and the
fleet's Jain fairness index.

**Service metric.** Fairness is scored on *weighted served tokens up to
a cutoff*: each completed request contributes
``(input_len + output_len) / weight``, with a request still in flight at
the cutoff contributing the elapsed fraction of its service
(``(cutoff - start) / (finish - start)``). The cutoff is the
last arrival — after it, stragglers drain alone and every scheduler
trivially serves whoever is left, which would wash out the contention
window the schedulers actually differ on. Under skewed overload, FCFS
serves tenants proportionally to their (Zipf-skewed) demand — a low Jain
index on absolute service — while VTC/WSC converge to (weighted) max-min
allocations.
"""

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional

from repro.serving.arrivals import CompletedRequest
from repro.serving.slo import SLO, meets
from repro.utils.stats import jain_index, mean
from repro.workloads.tenancy import TenantRequest
from repro.workloads.throttling import ThrottleDecision


@dataclasses.dataclass(frozen=True)
class TenantStats:
    """One tenant's share of a cluster run.

    Attributes:
        user_id: Tenant identity.
        weight: Service weight used in the fairness reduction.
        arrived / admitted / throttled: Door accounting. ``arrived ==
            admitted + throttled`` always.
        completed: Admitted requests that finished.
        demand_tokens: Input+output tokens across every arrival (what
            the tenant asked for, admitted or not).
        served_tokens: Weighted served tokens at the cutoff (see module
            docstring) — the fairness allocation.
        wasted_tokens: Output tokens the fleet generated for nothing on
            this tenant's behalf: aborted-interaction stages charged by
            the door, plus (when a patience bound is given) answers
            completed after the user abandoned the request.
        attainment: Fraction of this tenant's completed requests meeting
            the SLO; 0.0 when nothing completed (a fully throttled or
            fully starved tenant attained nothing).
        mean_ttft_s: Mean time-to-first-token over completions, ``None``
            when nothing completed.
    """

    user_id: int
    weight: float
    arrived: int
    admitted: int
    throttled: int
    completed: int
    demand_tokens: int
    served_tokens: float
    wasted_tokens: int
    attainment: float
    mean_ttft_s: Optional[float]


@dataclasses.dataclass(frozen=True)
class FairnessReport:
    """Per-tenant breakdown plus the fleet's fairness scalars.

    Attributes:
        tenants: Per-tenant stats, ordered by ``user_id``.
        jain_index: Jain's index over per-tenant ``served_tokens``
            (1.0 = perfectly fair, 1/n = one tenant got everything).
        throttle_rate: Door-refused fraction of all arrivals.
        wasted_tokens: Fleet total of wasted work (aborts + abandoned).
        cutoff_s: The service cutoff the allocations were measured at.
    """

    tenants: List[TenantStats]
    jain_index: float
    throttle_rate: float
    wasted_tokens: int
    cutoff_s: float


def _served_fraction(record: CompletedRequest, cutoff: float) -> float:
    """Fraction of *record*'s service delivered by *cutoff*."""
    if record.finish_s <= cutoff:
        return 1.0
    if record.start_s >= cutoff:
        return 0.0
    span = record.finish_s - record.start_s
    if span <= 0.0:
        return 1.0
    return (cutoff - record.start_s) / span


def fairness_report(decisions: Iterable[ThrottleDecision],
                    completed: Iterable[CompletedRequest],
                    slo: Optional[SLO] = None,
                    weights: Optional[Mapping[int, float]] = None,
                    abandoned_ttft_s: Optional[float] = None
                    ) -> FairnessReport:
    """Join door verdicts with completion records into per-tenant stats.

    *decisions* must cover every arrival (admitted and throttled — a
    :meth:`~repro.workloads.throttling.TenantStream.decisions` pass);
    *completed* is any cluster/serving run's completion records, joined
    by ``request_id``. *slo* defaults to the library default; *weights*
    are the WSC weights (unlisted tenants weigh 1.0) so the fairness
    index measures weighted service, counted up to the last arrival
    time (the report's ``cutoff_s``).

    *abandoned_ttft_s* is a patience bound: a completed request whose
    TTFT exceeded it is counted as *wasted* output tokens (the user
    walked away, but the engine generated the answer anyway — the waste
    an admission door exists to prevent). ``None`` disables the model,
    so without throttling and without patience every run reports zero
    waste.

    Raises a descriptive ``ValueError`` when the join produces no
    tenants or no admitted request ever completed — per-tenant fairness
    of a run that served nothing is undefined, matching the
    :mod:`repro.utils.stats` never-empty convention.
    """
    slo = slo or SLO()
    weights = dict(weights or {})
    by_id: Dict[int, CompletedRequest] = {
        record.request_id: record for record in completed}

    arrived: Dict[int, int] = {}
    admitted: Dict[int, int] = {}
    throttled: Dict[int, int] = {}
    demand: Dict[int, int] = {}
    wasted: Dict[int, int] = {}
    served: Dict[int, float] = {}
    ttfts: Dict[int, List[float]] = {}
    met: Dict[int, int] = {}
    finished: Dict[int, int] = {}
    last_arrival = 0.0
    matched: List[TenantRequest] = []

    for decision in decisions:
        request = decision.request
        user = request.user_id
        arrived[user] = arrived.get(user, 0) + 1
        demand[user] = (demand.get(user, 0)
                        + request.input_len + request.output_len)
        last_arrival = max(last_arrival, request.arrival_s)
        if decision.admitted:
            admitted[user] = admitted.get(user, 0) + 1
        else:
            throttled[user] = throttled.get(user, 0) + 1
            wasted[user] = wasted.get(user, 0) + decision.wasted_tokens
        record = by_id.get(request.request_id)
        if decision.admitted and record is not None:
            matched.append(request)
    if not arrived:
        raise ValueError(
            "fairness_report() over an empty decision stream is undefined "
            "— no arrivals means no tenants; check the workload before "
            "reading fairness statistics")
    if not matched:
        raise ValueError(
            "fairness_report() with zero completed requests is undefined — "
            "no admitted request finished (or the completion records do "
            "not join the arrival stream by request_id); check the run "
            "before reading fairness statistics")
    cutoff = last_arrival

    for request in matched:
        user = request.user_id
        record = by_id[request.request_id]
        weight = weights.get(user, 1.0)
        tokens = request.input_len + request.output_len
        served[user] = (served.get(user, 0.0)
                        + tokens * _served_fraction(record, cutoff) / weight)
        ttfts.setdefault(user, []).append(record.ttft_s)
        finished[user] = finished.get(user, 0) + 1
        if meets(record, request, slo):
            met[user] = met.get(user, 0) + 1
        if (abandoned_ttft_s is not None
                and record.ttft_s > abandoned_ttft_s):
            wasted[user] = wasted.get(user, 0) + request.output_len

    tenants: List[TenantStats] = []
    for user in sorted(arrived):
        done = finished.get(user, 0)
        tenants.append(TenantStats(
            user_id=user,
            weight=weights.get(user, 1.0),
            arrived=arrived[user],
            admitted=admitted.get(user, 0),
            throttled=throttled.get(user, 0),
            completed=done,
            demand_tokens=demand[user],
            served_tokens=served.get(user, 0.0),
            wasted_tokens=wasted.get(user, 0),
            attainment=met.get(user, 0) / done if done else 0.0,
            mean_ttft_s=mean(ttfts[user]) if user in ttfts else None,
        ))
    total_arrived = sum(arrived.values())
    total_throttled = sum(throttled.values())
    return FairnessReport(
        tenants=tenants,
        jain_index=jain_index([t.served_tokens for t in tenants]),
        throttle_rate=total_throttled / total_arrived,
        wasted_tokens=sum(wasted.values()),
        cutoff_s=cutoff,
    )
