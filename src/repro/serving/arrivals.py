"""Request-arrival generation for serving simulations.

Produces deterministic, seeded arrival streams: exponential inter-arrival
times (Poisson process) with per-request prompt/output lengths drawn from
a workload spec. Used by the batching-policy study, which extends the
paper's throughput discussion toward the serving systems its related-work
section cites (Orca, vLLM, Sarathi). The records a serving run returns,
:class:`CompletedRequest` and :class:`ServingReport`, live here beside
the request they complete, below both the batching policies and the
fleet's replica loop.
"""

import dataclasses
import random
from typing import Callable, Iterator, List, Optional, Tuple

from repro.utils.stats import mean, percentile
from repro.utils.validation import require_positive

# Default request-shape ranges (a chatbot-like mix) used when no workload
# spec is supplied. Any object exposing ``input_len_range`` and
# ``output_len_range`` attributes works as a spec — including
# :class:`repro.workloads.generator.WorkloadSpec` — which keeps this module
# free of a circular dependency on the workloads package.
_DEFAULT_INPUT_RANGE: Tuple[int, int] = (32, 256)
_DEFAULT_OUTPUT_RANGE: Tuple[int, int] = (16, 64)


@dataclasses.dataclass(frozen=True, slots=True, init=False)
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

    ``__init__`` is hand-written because streams build one record per
    request: the generated frozen one calls ``object.__setattr__`` per
    field, this one each slot's ``__set__``, bound once by
    :func:`slot_setters`. The rest (``eq``, ``hash``, ``repr``,
    pickling, ``dataclasses.replace``) is the dataclass's.
    """

    request_id: int
    arrival_s: float
    input_len: int
    output_len: int

    def __init__(self, request_id: int, arrival_s: float, input_len: int,
                 output_len: int) -> None:
        set_id, set_arrival, set_input, set_output = _REQUEST_SETTERS
        set_id(self, request_id)
        set_arrival(self, arrival_s)
        set_input(self, input_len)
        set_output(self, output_len)


def slot_setters(cls: type) -> Tuple[Callable[[object, object], None], ...]:
    """Each field's slot-descriptor ``__set__`` on *cls*, in field order.

    Bound per class: on Python 3.10 ``dataclass(slots=True)`` re-declares
    inherited slots on a subclass, which shadow the base's descriptors.
    """
    return tuple(getattr(cls, field.name).__set__
                 for field in dataclasses.fields(cls))


_REQUEST_SETTERS = slot_setters(ArrivingRequest)


@dataclasses.dataclass(slots=True)
class CompletedRequest:
    """Per-request timing after a serving simulation.

    Attributes:
        request_id: Id from the arrival stream.
        arrival_s / start_s / first_token_s / finish_s: Lifecycle stamps.

    Slotted: million-request traces keep every record alive, and a
    ``__dict__``-carrying instance is two tracked objects for the
    cyclic GC to traverse instead of one (and ~3x the memory).
    """

    request_id: int
    arrival_s: float
    start_s: float
    first_token_s: float
    finish_s: float

    @property
    def queue_delay_s(self) -> float:
        """Time waiting before any computation."""
        return self.start_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Arrival-to-first-token latency (user-perceived TTFT)."""
        return self.first_token_s - self.arrival_s

    @property
    def e2e_s(self) -> float:
        """Arrival-to-completion latency."""
        return self.finish_s - self.arrival_s


@dataclasses.dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one serving simulation.

    Attributes:
        policy: "static", "continuous", or "chunked".
        completed: Per-request records, in completion order.
        makespan_s: Last completion time.
        generated_tokens: Total tokens produced.
        decode_gaps: Inter-token gaps observed by running sequences (how
            long each was stalled between its consecutive tokens —
            admission prefills inflate this for continuous batching, which
            is exactly what chunked prefill bounds).

    ``completed`` is never empty — every runner raises ``ValueError``
    on an empty arrival stream — so the latency statistics below are
    always defined.
    """

    policy: str
    completed: List[CompletedRequest]
    makespan_s: float
    generated_tokens: int
    decode_gaps: List[float] = dataclasses.field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Aggregate generated tokens per second over the makespan."""
        return self.generated_tokens / self.makespan_s

    @property
    def mean_ttft_s(self) -> float:
        """Mean arrival-to-first-token latency."""
        return mean([r.ttft_s for r in self.completed])

    @property
    def p95_ttft_s(self) -> float:
        """95th-percentile TTFT (linear interpolation)."""
        return percentile([r.ttft_s for r in self.completed], 95)

    @property
    def max_decode_gap_s(self) -> float:
        """Worst stall between consecutive tokens of a running sequence."""
        return max(self.decode_gaps) if self.decode_gaps else 0.0

    @property
    def p95_decode_gap_s(self) -> float:
        """95th-percentile inter-token gap (linear interpolation)."""
        if not self.decode_gaps:
            return 0.0
        return percentile(self.decode_gaps, 95)


def int_sampler(rng: random.Random, lo: int,
                hi: int) -> Callable[[], int]:
    """``rng.randint(lo, hi)`` as a closure over ``getrandbits``.

    CPython's own algorithm (``randrange`` -> ``_randbelow``): draw
    ``n.bit_length()`` bits until below the width ``n``. Draws and the
    state after them equal ``randint``'s, without its three frames.
    """
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range ({lo}, {hi})")
    k = n.bit_length()
    getrandbits = rng.getrandbits

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    return draw


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
    expovariate = rng.expovariate
    draw_input = int_sampler(rng, *input_range)
    draw_output = int_sampler(rng, *output_range)
    now = 0.0
    request_id = 0
    while count is None or request_id < count:
        in_burst = burst_s and (now % period_s) < burst_s
        now += expovariate(burst_rate_per_s if in_burst
                           else base_rate_per_s)
        if duration_s is not None and now > duration_s:
            return
        if request_id % num_shards == shard:
            yield ArrivingRequest(request_id, now, draw_input(),
                                  draw_output())
        else:
            draw_input()
            draw_output()
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
