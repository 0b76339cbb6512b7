"""SLO attainment and goodput analysis.

Section II-C's scenarios come with implicit service-level objectives: a
chatbot needs TTFT under some bound, live translation needs TPOT under
the speech rate. This module scores serving reports against explicit
SLOs and finds the maximum sustainable arrival rate — the serving-level
figure of merit production teams actually provision against.
"""

import dataclasses
from typing import Callable, List

from repro.serving.arrivals import ArrivingRequest, poisson_arrivals
from repro.serving.scheduler import (
    BatchingSimulator,
    ServingReport,
    check_batching_policy,
)
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class SLO:
    """A latency service-level objective.

    Attributes:
        ttft_s: Maximum acceptable arrival-to-first-token latency.
        tpot_s: Maximum acceptable mean time per output token.
    """

    ttft_s: float = 2.0
    tpot_s: float = 0.2

    def __post_init__(self) -> None:
        require_positive(self.ttft_s, "ttft_s")
        require_positive(self.tpot_s, "tpot_s")


def meets(record, request: ArrivingRequest, slo: SLO) -> bool:
    """Whether one completed request meets both bounds.

    TPOT is derived from the record's generation span paired with the
    original request's output length (completed records carry timing, not
    shape). The one-record primitive behind :func:`attainment`,
    :func:`goodput`, per-class scoring (:mod:`repro.cluster.tiering`)
    and per-tenant fairness (:mod:`repro.cluster.fairness`).
    """
    decode_steps = max(0, request.output_len - 1)
    tpot = ((record.finish_s - record.first_token_s) / decode_steps
            if decode_steps else 0.0)
    return record.ttft_s <= slo.ttft_s and tpot <= slo.tpot_s


def attainment(report: ServingReport, arrivals: List[ArrivingRequest],
               slo: SLO) -> float:
    """Fraction of requests meeting the SLO."""
    by_id = {request.request_id: request for request in arrivals}
    met = sum(1 for record in report.completed
              if meets(record, by_id[record.request_id], slo))
    return met / len(report.completed)


def goodput(report: ServingReport, arrivals: List[ArrivingRequest],
            slo: SLO) -> float:
    """Tokens/s counting only SLO-compliant requests."""
    by_id = {request.request_id: request for request in arrivals}
    good_tokens = sum(
        by_id[record.request_id].output_len
        for record in report.completed
        if meets(record, by_id[record.request_id], slo))
    return good_tokens / report.makespan_s


#: :func:`max_sustainable_rate`'s search: the attainment to keep, the
#: requests per probe trace (seed 0), the rate bracket (requests/s) and
#: the geometric bisection steps inside it.
TARGET_ATTAINMENT = 0.95
SEARCH_REQUESTS = 24
RATE_BOUNDS = (0.125, 32.0)
SEARCH_ITERATIONS = 8


def max_sustainable_rate(simulator: BatchingSimulator, slo: SLO,
                         policy: str = "continuous") -> float:
    """Highest Poisson rate keeping SLO attainment above the target.

    Binary-searches the arrival rate; deterministic for fixed inputs.
    Returns 0.0 if even the lowest bound misses the target.
    """
    runner: Callable = getattr(simulator,
                               f"run_{check_batching_policy(policy)}")

    def attains(rate: float) -> bool:
        arrivals = poisson_arrivals(rate, SEARCH_REQUESTS)
        report = runner(arrivals)
        return attainment(report, arrivals, slo) >= TARGET_ATTAINMENT

    low, high = RATE_BOUNDS
    if not attains(low):
        return 0.0
    if attains(high):
        return high
    for _ in range(SEARCH_ITERATIONS):
        mid = (low * high) ** 0.5  # geometric: rates span decades
        if attains(mid):
            low = mid
        else:
            high = mid
    return low
