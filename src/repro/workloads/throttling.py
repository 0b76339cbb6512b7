"""Overload throttling at the door: sliding rate windows per user/app.

When offered load exceeds capacity, *something* sheds it — the only
question is where and at what cost. Queue-side shedding (timeouts deep in
the backlog) wastes every token already spent on a doomed interaction's
earlier stages; door-side shedding decides before work starts. This
module implements the door:

* a sliding-window rate limit per user and per app (``max_user_requests``
  / ``max_app_requests`` admitted arrivals within the trailing
  ``window_s`` seconds), and
* two policies for multi-stage interactions. ``"interaction"`` decides at
  stage 0 and never mid-interaction: once admitted, follow-up stages
  bypass the limiter, so an interaction either runs whole or is refused
  before any tokens are spent (zero wasted work, the fairserve "OIT"
  discipline). ``"request"`` is the naive per-request limiter: any stage
  can be refused, which aborts the interaction — later stages are
  dropped, and the tokens generated by its already-completed earlier
  stages are counted as wasted.

Decisions are a pure function of the arrival stream and the config — no
simulator state — so the sharded runner can evaluate them over the full
stream in every worker and stay bit-identical (see
:class:`TenantStream`, which applies the door to a tenant stream).
"""

import dataclasses
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, Optional, Set

from repro.utils.validation import require_positive
from repro.workloads.tenancy import (
    TenantRequest,
    TenantWorkloadSpec,
    iter_tenant_arrivals,
)

#: Decision reasons, in the order a verdict is reached.
ADMITTED = "admitted"
USER_RATE = "user_rate"
APP_RATE = "app_rate"
ABORTED_INTERACTION = "aborted_interaction"

_POLICIES = ("interaction", "request")


@dataclasses.dataclass(frozen=True)
class ThrottleConfig:
    """Door policy: sliding rate windows and the interaction discipline.

    Attributes:
        window_s: Length of the trailing window the limits apply to.
        max_user_requests: Admitted arrivals allowed per user within the
            window (``None`` = unlimited).
        max_app_requests: Same, per app.
        policy: ``"interaction"`` (decide at stage 0, never
            mid-interaction) or ``"request"`` (naive per-request limit;
            mid-interaction refusals abort the chain and waste its
            earlier stages' tokens).
    """

    window_s: float = 60.0
    max_user_requests: Optional[int] = None
    max_app_requests: Optional[int] = None
    policy: str = "interaction"

    def __post_init__(self) -> None:
        require_positive(self.window_s, "window_s")
        if self.max_user_requests is not None:
            require_positive(self.max_user_requests, "max_user_requests")
        if self.max_app_requests is not None:
            require_positive(self.max_app_requests, "max_app_requests")
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got "
                             f"{self.policy!r}")


@dataclasses.dataclass(frozen=True, slots=True)
class ThrottleDecision:
    """One arrival's door verdict.

    ``wasted_tokens`` is non-zero only on the decision that *aborts* an
    interaction (request policy): it charges the output tokens of the
    chain's previously admitted stages, which the abort retroactively
    turned into wasted work.
    """

    request: TenantRequest
    admitted: bool
    reason: str
    wasted_tokens: int = 0


class _Window:
    """Admitted-arrival timestamps within the trailing window."""

    __slots__ = ("limit", "window_s", "times")

    def __init__(self, limit: Optional[int], window_s: float) -> None:
        self.limit = limit
        self.window_s = window_s
        self.times: Dict[int, Deque[float]] = {}

    def allows(self, key: int, now: float) -> bool:
        if self.limit is None:
            return True
        times = self.times.get(key)
        if times is None:
            return True
        cutoff = now - self.window_s
        while times and times[0] <= cutoff:
            times.popleft()
        return len(times) < self.limit

    def record(self, key: int, now: float) -> None:
        if self.limit is None:
            return
        self.times.setdefault(key, deque()).append(now)


def throttle_decisions(
        stream: Iterable[TenantRequest],
        config: Optional[ThrottleConfig]) -> Iterator[ThrottleDecision]:
    """Evaluate the door over a time-ordered stream, one verdict each.

    With ``config=None`` every arrival is admitted (the no-door
    baseline), so accounting code can consume a single iterator shape
    either way. Only *admitted* arrivals charge the rate windows —
    refusing a request must not consume the tenant's budget, or a burst
    would lock a tenant out for a full window regardless of how little
    was actually served.
    """
    if config is None:
        for request in stream:
            yield ThrottleDecision(request, True, ADMITTED)
        return

    user_window = _Window(config.max_user_requests, config.window_s)
    app_window = _Window(config.max_app_requests, config.window_s)
    # interaction_id -> stage-0 reason (interaction policy; ADMITTED
    # means admitted), pruned once the final stage passes through.
    interaction_verdicts: Dict[int, str] = {}
    # Aborted interactions (request policy): id -> output tokens already
    # admitted, charged as waste on the aborting decision then dropped.
    aborted: Set[int] = set()
    admitted_output: Dict[int, int] = {}

    def final_stage(request: TenantRequest) -> bool:
        return request.stage + 1 >= request.stages

    for request in stream:
        now = request.arrival_s
        chained = request.stages > 1 and request.interaction_id >= 0
        if config.policy == "interaction" and chained and request.stage > 0:
            # Mid-interaction: inherit the stage-0 verdict, skip the
            # limiter entirely.
            verdict = interaction_verdicts.get(request.interaction_id,
                                               ADMITTED)
            if verdict == ADMITTED:
                user_window.record(request.user_id, now)
                app_window.record(request.app_id, now)
                yield ThrottleDecision(request, True, ADMITTED)
            else:
                yield ThrottleDecision(request, False, verdict)
            if final_stage(request):
                interaction_verdicts.pop(request.interaction_id, None)
            continue
        if (config.policy == "request" and chained
                and request.interaction_id in aborted):
            yield ThrottleDecision(request, False, ABORTED_INTERACTION)
            if final_stage(request):
                aborted.discard(request.interaction_id)
            continue

        if not user_window.allows(request.user_id, now):
            admitted, reason = False, USER_RATE
        elif not app_window.allows(request.app_id, now):
            admitted, reason = False, APP_RATE
        else:
            admitted, reason = True, ADMITTED

        wasted = 0
        if admitted:
            user_window.record(request.user_id, now)
            app_window.record(request.app_id, now)
            if config.policy == "request" and chained:
                admitted_output[request.interaction_id] = (
                    admitted_output.get(request.interaction_id, 0)
                    + request.output_len)
        elif config.policy == "request" and chained and request.stage > 0:
            # Mid-interaction refusal: the chain aborts, and its earlier
            # admitted stages' output becomes wasted work.
            aborted.add(request.interaction_id)
            wasted = admitted_output.pop(request.interaction_id, 0)
            reason = ABORTED_INTERACTION

        if chained and final_stage(request):
            interaction_verdicts.pop(request.interaction_id, None)
            aborted.discard(request.interaction_id)
            admitted_output.pop(request.interaction_id, None)
        elif config.policy == "interaction" and chained and request.stage == 0:
            interaction_verdicts[request.interaction_id] = reason

        yield ThrottleDecision(request, admitted, reason,
                               wasted_tokens=wasted)


@dataclasses.dataclass(frozen=True)
class TenantStream:
    """A replayable, splittable tenant stream, optionally door-throttled.

    The tenant-aware counterpart of
    :class:`~repro.workloads.streams.ShardableStream`: pickleable plain
    data that the sharded runner ships to worker processes, with
    :meth:`full` / :meth:`shard` regenerating identical streams on every
    call. When *throttle* is set, admission decisions are evaluated over
    the **full** stream before the shard filter — door state (sliding
    rate windows) sees every arrival in every shard, so the set of
    admitted requests is identical for any worker count and sharded runs
    stay bit-identical. Admitted requests keep their full-stream
    ``request_id`` (the merge position), so the sub-streams simply omit
    throttled ids rather than renumbering.
    """

    spec: TenantWorkloadSpec
    rate_per_s: float
    count: Optional[int] = None
    duration_s: Optional[float] = None
    seed: int = 0
    throttle: Optional[ThrottleConfig] = None

    def _raw(self, shard: int, num_shards: int) -> Iterator[TenantRequest]:
        return iter_tenant_arrivals(self.spec, self.rate_per_s,
                                    count=self.count,
                                    duration_s=self.duration_s,
                                    seed=self.seed, shard=shard,
                                    num_shards=num_shards)

    def decisions(self) -> Iterator[ThrottleDecision]:
        """Door verdicts for every arrival in the full stream.

        With no throttle configured every request is admitted; either
        way the iterator covers throttled and admitted arrivals alike,
        which is what per-tenant accounting (throttle rate, wasted
        tokens, demand) needs.
        """
        return throttle_decisions(self._raw(0, 1), self.throttle)

    def full(self) -> Iterator[TenantRequest]:
        """The complete admitted stream, regenerated from scratch."""
        return self.shard(0, 1)

    def shard(self, shard: int, num_shards: int) -> Iterator[TenantRequest]:
        """Admitted requests with ``request_id % num_shards == shard``."""
        if self.throttle is None:
            return self._raw(shard, num_shards)

        def admitted() -> Iterator[TenantRequest]:
            for decision in self.decisions():
                if (decision.admitted
                        and decision.request.request_id
                        % num_shards == shard):
                    yield decision.request

        return admitted()
