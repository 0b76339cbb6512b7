"""Tenant-attributed workloads: users, apps, and multi-stage interactions.

The anonymous arrival streams in :mod:`repro.serving.arrivals` model *load*;
this module models *demand*: requests belong to users (tenants) and apps
whose request rates follow a Zipf law, and arrive as multi-stage
``Interaction`` chains (a chatbot turn, its follow-up, and so on) rather
than independent one-shots. Skewed multi-tenant demand is what makes
fairness scheduling and admission control meaningful — under FCFS a heavy
tenant's backlog starves everyone else's SLOs, which per-request metrics
cannot even express.

Design constraints inherited from the cluster layer:

* **Streaming** — interactions are spawned lazily and their stage records
  heap-merged into global time order, so a million-request tenant trace
  costs O(open interactions) memory, not O(requests).
* **Splittable** — ``(shard, num_shards)`` follows the arrival-generator
  contract: every shard regenerates the *full* stream's random draws and
  yields only requests with ``request_id % num_shards == shard``, so the
  union of sub-streams is bit-equal to the unsharded stream and sharded
  cluster runs stay bit-identical for any worker count.
* **Generation-time chaining** — a follow-up stage's arrival is its
  predecessor's arrival plus a decode-time proxy (``output_len *
  followup_s_per_token``) plus a user think-time draw. Chaining on
  *simulated* completion would make arrival times depend on scheduler
  state, which is group-local under sharding; the proxy keeps the
  workload identical across worker counts and across the schedulers
  being compared (see ``docs/fairness.md``).
"""

import dataclasses
import heapq
import itertools
import random
from bisect import bisect_right
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.serving.arrivals import (
    ArrivingRequest,
    _check_shard,
    _check_stream_bounds,
    int_sampler,
    slot_setters,
)
from repro.utils.validation import require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.workloads.throttling import ThrottleConfig, ThrottleDecision


@dataclasses.dataclass(frozen=True, slots=True, init=False)
class TenantRequest(ArrivingRequest):
    """An :class:`ArrivingRequest` with tenant and interaction identity.

    Attributes:
        user_id: Tenant (user) the request bills to.
        app_id: Application the request arrived through.
        interaction_id: Which interaction chain this request belongs to.
        stage: 0-based position within the interaction.
        stages: Total stages in the interaction (``stage`` ranges over
            ``[0, stages)``), so door policies can recognize both the
            first and the final stage without a lookahead.

    Plain :class:`ArrivingRequest` consumers (nodes, routers, the shard
    merge) see the inherited fields and ignore the rest; tenant-aware
    components (admission schedulers, throttling, fairness reports)
    duck-type on ``user_id``. Defaults make an untagged record read as a
    single-stage interaction of anonymous tenant 0.

    ``__init__`` is hand-written as the base's is, through this class's
    own slot setters (Python 3.10 re-declares the inherited slots).
    """

    user_id: int = 0
    app_id: int = 0
    interaction_id: int = -1
    stage: int = 0
    stages: int = 1

    def __init__(self, request_id: int, arrival_s: float, input_len: int,
                 output_len: int, user_id: int = 0, app_id: int = 0,
                 interaction_id: int = -1, stage: int = 0,
                 stages: int = 1) -> None:
        (set_id, set_arrival, set_input, set_output, set_user, set_app,
         set_interaction, set_stage, set_stages) = _TENANT_SETTERS
        set_id(self, request_id)
        set_arrival(self, arrival_s)
        set_input(self, input_len)
        set_output(self, output_len)
        set_user(self, user_id)
        set_app(self, app_id)
        set_interaction(self, interaction_id)
        set_stage(self, stage)
        set_stages(self, stages)


_TENANT_SETTERS = slot_setters(TenantRequest)


def zipf_shares(n: int, s: float = 1.1) -> List[float]:
    """Normalized Zipf(s) popularity shares for *n* ranked tenants.

    ``shares[k] ∝ 1 / (k + 1)**s``, summing to 1.0. ``s=0`` degenerates
    to uniform; larger *s* concentrates demand on the head — the skew
    regime where fairness schedulers separate from FCFS.
    """
    require_positive(n, "n")
    if s < 0:
        raise ValueError(f"zipf exponent s must be >= 0, got {s!r}")
    raw = [1.0 / (k + 1) ** s for k in range(n)]
    total = sum(raw)
    return [value / total for value in raw]


@dataclasses.dataclass(frozen=True)
class TenantWorkloadSpec:
    """Shape of a multi-tenant workload.

    Exposes ``input_len_range`` / ``output_len_range`` so it satisfies the
    same duck-typed spec contract as
    :class:`~repro.workloads.generator.WorkloadSpec` (arrival generators
    and the sharded runner's warmup sizing both read those two attributes).

    Attributes:
        users: Number of tenants; per-tenant demand follows
            ``zipf_shares(users, zipf_s)``.
        apps: Number of applications, Zipf-skewed with the same exponent
            and drawn independently of the user.
        zipf_s: Skew exponent for both draws.
        interaction_stages: Inclusive (min, max) stages per interaction.
        think_time_range_s: Inclusive (min, max) user think time between
            a stage's arrival and its follow-up, on top of the decode
            proxy below.
        followup_s_per_token: Decode-time proxy — a follow-up arrives no
            earlier than ``output_len * followup_s_per_token`` after its
            predecessor, approximating "chained on completion" without
            coupling the workload to scheduler state.
    """

    users: int
    apps: int = 1
    zipf_s: float = 1.1
    input_len_range: Tuple[int, int] = (32, 256)
    output_len_range: Tuple[int, int] = (16, 64)
    interaction_stages: Tuple[int, int] = (1, 3)
    think_time_range_s: Tuple[float, float] = (0.5, 4.0)
    followup_s_per_token: float = 0.05

    def __post_init__(self) -> None:
        require_positive(self.users, "users")
        require_positive(self.apps, "apps")
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s!r}")
        lo, hi = self.interaction_stages
        if not 1 <= lo <= hi:
            raise ValueError("interaction_stages must satisfy 1 <= min <= "
                             f"max, got {self.interaction_stages!r}")
        if self.followup_s_per_token < 0:
            raise ValueError("followup_s_per_token must be >= 0, got "
                             f"{self.followup_s_per_token!r}")


def _cumulative(shares: List[float]) -> List[float]:
    return list(itertools.accumulate(shares))


def iter_tenant_arrivals(spec: TenantWorkloadSpec, rate_per_s: float,
                         count: Optional[int] = None,
                         duration_s: Optional[float] = None,
                         seed: int = 0, shard: int = 0,
                         num_shards: int = 1) -> Iterator[TenantRequest]:
    """Lazily generate a time-ordered multi-tenant arrival stream.

    Interactions spawn as a Poisson process at *rate_per_s*; each spawn
    draws a user and an app from Zipf(``spec.zipf_s``) popularity, a
    stage count, and per-stage request shapes, then schedules follow-up
    stages at generation time (decode proxy + think time, see the module
    docstring). Stage records from open interactions are heap-merged with
    upcoming spawns so the yielded stream is globally time-ordered, and
    ``request_id`` is assigned in yield order — the id doubles as the
    request's position in the full stream, which the sharded merge keys
    on.

    Bounds follow the arrival-generator contract: at least one of
    *count* (full-stream requests) and *duration_s* is required; stages
    that would land past *duration_s* are dropped with their interaction
    truncated. ``(shard, num_shards)`` yields only requests with
    ``request_id % num_shards == shard`` while consuming the identical
    random sequence in every shard.
    """
    require_positive(rate_per_s, "rate_per_s")
    _check_stream_bounds(count, duration_s)
    _check_shard(shard, num_shards)

    user_cum = _cumulative(zipf_shares(spec.users, spec.zipf_s))
    app_cum = _cumulative(zipf_shares(spec.apps, spec.zipf_s))

    def generate() -> Iterator[TenantRequest]:
        rng = random.Random(seed)
        random_, uniform, expovariate = (rng.random, rng.uniform,
                                         rng.expovariate)
        draw_stages = int_sampler(rng, *spec.interaction_stages)
        draw_input = int_sampler(rng, *spec.input_len_range)
        draw_output = int_sampler(rng, *spec.output_len_range)
        think_lo, think_hi = spec.think_time_range_s
        per_token = spec.followup_s_per_token
        last_user, last_app = spec.users - 1, spec.apps - 1
        push, pop = heapq.heappush, heapq.heappop
        # Heap entries: (arrival_s, insertion_seq, user, app, interaction,
        # stage, stages, input_len, output_len). The insertion sequence
        # breaks time ties deterministically in spawn order.
        heap: List[Tuple[float, int, int, int, int, int, int, int, int]] = []
        seq = 0
        request_id = 0
        interaction_id = 0
        next_spawn = expovariate(rate_per_s)
        spawning = duration_s is None or next_spawn <= duration_s
        while heap or spawning:
            if spawning and (not heap or next_spawn <= heap[0][0]):
                # min() guards the (rounding-only) case where the
                # cumulative sum lands a hair below the drawn uniform.
                user = min(bisect_right(user_cum, random_()), last_user)
                app = min(bisect_right(app_cum, random_()), last_app)
                stages = draw_stages()
                when = next_spawn
                for stage in range(stages):
                    input_len = draw_input()
                    output_len = draw_output()
                    if duration_s is None or when <= duration_s:
                        push(heap, (when, seq, user, app, interaction_id,
                                    stage, stages, input_len, output_len))
                        seq += 1
                    if stage + 1 < stages:
                        when += (output_len * per_token
                                 + uniform(think_lo, think_hi))
                interaction_id += 1
                next_spawn += expovariate(rate_per_s)
                if duration_s is not None and next_spawn > duration_s:
                    spawning = False
                continue
            (when, _, user, app, interaction, stage, stages,
             input_len, output_len) = pop(heap)
            if request_id % num_shards == shard:
                yield TenantRequest(request_id, when, input_len, output_len,
                                    user, app, interaction, stage, stages)
            request_id += 1
            if count is not None and request_id >= count:
                return

    return generate()


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
    throttle: Optional["ThrottleConfig"] = None

    def _raw(self, shard: int, num_shards: int) -> Iterator[TenantRequest]:
        return iter_tenant_arrivals(self.spec, self.rate_per_s,
                                    count=self.count,
                                    duration_s=self.duration_s,
                                    seed=self.seed, shard=shard,
                                    num_shards=num_shards)

    def decisions(self) -> Iterator["ThrottleDecision"]:
        """Door verdicts for every arrival in the full stream.

        With no throttle configured every request is admitted; either
        way the iterator covers throttled and admitted arrivals alike,
        which is what per-tenant accounting (throttle rate, wasted
        tokens, demand) needs.
        """
        from repro.workloads.throttling import throttle_decisions
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
