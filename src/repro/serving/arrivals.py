"""Request-arrival generation for serving simulations.

Produces deterministic, seeded arrival streams: exponential inter-arrival
times (Poisson process) with per-request prompt/output lengths drawn from
a workload spec. Used by the batching-policy study, which extends the
paper's throughput discussion toward the serving systems its related-work
section cites (Orca, vLLM, Sarathi).
"""

import dataclasses
import random
from typing import Iterator, List, Optional, Tuple

from repro.utils.validation import require_positive

# Default request-shape ranges (a chatbot-like mix) used when no workload
# spec is supplied. Any object exposing ``input_len_range`` and
# ``output_len_range`` attributes works as a spec — including
# :class:`repro.workloads.generator.WorkloadSpec` — which keeps this module
# free of a circular dependency on the workloads package.
_DEFAULT_INPUT_RANGE: Tuple[int, int] = (32, 256)
_DEFAULT_OUTPUT_RANGE: Tuple[int, int] = (16, 64)


@dataclasses.dataclass(frozen=True, slots=True)
class ArrivingRequest:
    """One request with an arrival timestamp.

    Attributes:
        request_id: Stable id within the stream.
        arrival_s: Simulated arrival time.
        input_len / output_len: Request shape (single sequence; batching is
            the scheduler's job).

    Slotted: materialized million-request streams dominate the heap,
    and slots cut both the per-record footprint (~3x) and the cyclic
    GC's traversal cost (one tracked object, not two).
    """

    request_id: int
    arrival_s: float
    input_len: int
    output_len: int


def _spec_ranges(spec: Optional[object]) -> Tuple[Tuple[int, int],
                                                  Tuple[int, int]]:
    if spec is None:
        return _DEFAULT_INPUT_RANGE, _DEFAULT_OUTPUT_RANGE
    return spec.input_len_range, spec.output_len_range


def _check_stream_bounds(count: Optional[int],
                         duration_s: Optional[float]) -> None:
    if count is None and duration_s is None:
        raise ValueError("an arrival stream needs a bound: pass count, "
                         "duration_s, or both")
    if count is not None:
        require_positive(count, "count")
    if duration_s is not None:
        require_positive(duration_s, "duration_s")


def _check_shard(shard: int, num_shards: int) -> None:
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard must be in [0, {num_shards}), got {shard}")


def _arrivals(base_rate_per_s: float, burst_rate_per_s: float,
              burst_s: float, period_s: float, count: Optional[int],
              duration_s: Optional[float], spec: Optional[object],
              seed: int, shard: int,
              num_shards: int) -> Iterator[ArrivingRequest]:
    """The one arrival loop: exponential gaps at the burst rate inside
    each period's opening *burst_s* window, at the base rate outside it.

    Callers validate. Foreign shards' draws are consumed (the RNG
    stream must stay aligned across shards) but their request objects
    are never built.
    """
    input_range, output_range = _spec_ranges(spec)
    rng = random.Random(seed)
    expovariate, randint = rng.expovariate, rng.randint
    now = 0.0
    request_id = 0
    while count is None or request_id < count:
        in_burst = burst_s and (now % period_s) < burst_s
        now += expovariate(burst_rate_per_s if in_burst
                           else base_rate_per_s)
        if duration_s is not None and now > duration_s:
            return
        if request_id % num_shards == shard:
            yield ArrivingRequest(
                request_id=request_id,
                arrival_s=now,
                input_len=randint(*input_range),
                output_len=randint(*output_range),
            )
        else:
            randint(*input_range)
            randint(*output_range)
        request_id += 1


def iter_poisson_arrivals(rate_per_s: float, count: Optional[int] = None,
                          duration_s: Optional[float] = None,
                          spec: Optional[object] = None,
                          seed: int = 0, shard: int = 0,
                          num_shards: int = 1) -> Iterator[ArrivingRequest]:
    """Lazily generate Poisson arrivals, never materializing the stream.

    Yields time-ordered :class:`ArrivingRequest` records until *count*
    requests have been produced or the next arrival would land past
    *duration_s* (at least one bound is required; both may be given).
    Draws the same random sequence as :func:`poisson_arrivals`, so for
    equal ``(rate, count, spec, seed)`` the two produce identical
    requests — the list form is just this generator collected. It is
    the bursty stream at one rate: the same draws in the same order.
    Arguments are validated eagerly, at the call, not at first ``next``.

    ``(shard, num_shards)`` splits the stream deterministically: the
    full sequence is drawn regardless (every shard consumes the same
    RNG stream), but only requests whose ``request_id % num_shards ==
    shard`` are yielded. The union of the ``num_shards`` sub-streams is
    therefore bit-equal to the unsharded stream — same ids, stamps, and
    shapes — for any shard count, which is what lets a sharded cluster
    worker regenerate exactly its own slice of a million-request trace.
    """
    require_positive(rate_per_s, "rate_per_s")
    _check_stream_bounds(count, duration_s)
    _check_shard(shard, num_shards)
    # One rate, and an empty burst window: every gap draws at it.
    return _arrivals(rate_per_s, rate_per_s, 0.0, 1.0, count, duration_s,
                     spec, seed, shard, num_shards)


def poisson_arrivals(rate_per_s: float, count: int,
                     spec: Optional[object] = None,
                     seed: int = 0) -> List[ArrivingRequest]:
    """Generate *count* arrivals at *rate_per_s* with spec-shaped lengths.

    *spec* is any object with ``input_len_range`` / ``output_len_range``
    (min, max) attributes — a
    :class:`~repro.workloads.generator.WorkloadSpec` fits; ``None`` uses a
    chatbot-like default. Deterministic for a fixed (rate, count, spec,
    seed).
    """
    return list(iter_poisson_arrivals(rate_per_s, count=count, spec=spec,
                                      seed=seed))


def iter_bursty_arrivals(base_rate_per_s: float, burst_rate_per_s: float,
                         count: Optional[int] = None,
                         duration_s: Optional[float] = None,
                         spec: Optional[object] = None,
                         burst_s: float = 10.0, period_s: float = 60.0,
                         seed: int = 0, shard: int = 0,
                         num_shards: int = 1) -> Iterator[ArrivingRequest]:
    """Lazily generate a two-phase bursty stream (see :func:`bursty_arrivals`).

    Same bounds contract as :func:`iter_poisson_arrivals` (eager
    validation included) and the same random sequence as the list form
    for equal parameters. ``(shard, num_shards)`` splits the stream the
    same way: the full sequence is drawn, requests with
    ``request_id % num_shards == shard`` are yielded, and the union of
    sub-streams is bit-equal to the unsharded stream.
    """
    require_positive(base_rate_per_s, "base_rate_per_s")
    require_positive(burst_rate_per_s, "burst_rate_per_s")
    _check_stream_bounds(count, duration_s)
    require_positive(burst_s, "burst_s")
    if period_s <= burst_s:
        raise ValueError(f"period_s ({period_s}) must exceed burst_s "
                         f"({burst_s})")
    _check_shard(shard, num_shards)
    return _arrivals(base_rate_per_s, burst_rate_per_s, burst_s, period_s,
                     count, duration_s, spec, seed, shard, num_shards)


def bursty_arrivals(base_rate_per_s: float, burst_rate_per_s: float,
                    count: int, spec: Optional[object] = None,
                    burst_s: float = 10.0, period_s: float = 60.0,
                    seed: int = 0) -> List[ArrivingRequest]:
    """Generate a two-phase (on/off) bursty arrival stream.

    Each *period_s* cycle opens with a *burst_s* window at
    *burst_rate_per_s* and relaxes to *base_rate_per_s* for the rest —
    the diurnal-burst pattern autoscalers and routers are sized against,
    where a steady-rate Poisson stream would flatter every policy.
    Inter-arrival gaps are exponential at whichever rate governs the
    current instant. Same *spec* contract and determinism guarantees as
    :func:`poisson_arrivals`.
    """
    return list(iter_bursty_arrivals(base_rate_per_s, burst_rate_per_s,
                                     count=count, spec=spec,
                                     burst_s=burst_s, period_s=period_s,
                                     seed=seed))


def merge_arrivals(*streams: List[ArrivingRequest]) -> List[ArrivingRequest]:
    """Interleave arrival streams by time and renumber request ids.

    Builds mixed workloads — e.g. a chatbot stream plus a prefill-heavy
    analytics stream — whose phase balance differs per request, which is
    what heterogeneous routing policies discriminate on.
    """
    merged = sorted((request for stream in streams for request in stream),
                    key=lambda r: r.arrival_s)
    if not merged:
        raise ValueError("no arrivals to merge")
    return [dataclasses.replace(request, request_id=index)
            for index, request in enumerate(merged)]
