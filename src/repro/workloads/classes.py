"""Request classes for tiered serving: simple / standard / reasoning.

Production traffic is not one distribution — a portfolio fleet serves
interactive lookups, everyday chat, and long deliberate generations with
very different latency bars and *quality* requirements. This module
makes that mix first-class:

* :class:`RequestClass` — a named class with its own shape ranges, an
  :class:`~repro.serving.slo.SLO`, and a model-capability floor
  (``min_model_params``) below which a model cannot acceptably answer
  the class regardless of speed;
* :class:`MixClassifier` — the deterministic classifier hook: a pure
  hash of the request id into mix shares, so every component (stream
  generator, router, scoring) recovers the identical class for a
  request with no side channel and no RNG state;
* :class:`ClassMixStream` — a splittable arrival stream whose requests
  draw their shapes from their class's ranges. Like every stream here
  it is shard-aligned: all shards consume the same RNG sequence and the
  union of sub-streams is bit-equal to the full stream.

The classes themselves follow the jarvis-style 3-tier matrix from the
ROADMAP, calibrated against the measured per-(platform, model) step
costs: ``simple`` clears on the cheapest CPU tier, ``standard`` needs a
mid-size model, ``reasoning`` needs a large model and tolerates a
looser latency bar (see :mod:`repro.cluster.tiering` for the router
that exploits this).
"""

import dataclasses
import random
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.serving.arrivals import ArrivingRequest, _check_shard, \
    _check_stream_bounds
from repro.serving.slo import SLO
from repro.utils.validation import require_positive
from repro.workloads.generator import WorkloadSpec


@dataclasses.dataclass(frozen=True)
class RequestClass:
    """One request class in a tiered-serving mix.

    Attributes:
        name: Class identifier ("simple", "standard", "reasoning").
        slo: The class's latency bar (TTFT + TPOT bounds).
        min_model_params: Smallest model (total parameters) that can
            acceptably answer this class — the *quality* floor the
            tiered router never routes below except on tier outage.
        input_len_range / output_len_range: Inclusive shape ranges the
            class's requests draw from.
    """

    name: str
    slo: SLO
    min_model_params: float = 0.0
    input_len_range: Tuple[int, int] = (16, 96)
    output_len_range: Tuple[int, int] = (8, 48)

    def __post_init__(self) -> None:
        if self.min_model_params < 0:
            raise ValueError(f"min_model_params must be >= 0, got "
                             f"{self.min_model_params}")
        for label, rng in (("input_len_range", self.input_len_range),
                           ("output_len_range", self.output_len_range)):
            low, high = rng
            require_positive(low, f"{label} low")
            if high < low:
                raise ValueError(f"{label} high {high} < low {low}")


#: The default 3-class matrix. Shapes and bars are calibrated so the
#: cheapest CPU tier (ICL + a ~7B model, ~0.16 s/token measured) clears
#: ``simple``/``standard`` while ``reasoning``'s capability floor
#: (>= ~10B params) forces the large-model tier (SPR + 13B, ~0.065
#: s/token) — the split the tiered router monetizes.
REQUEST_CLASSES: Dict[str, RequestClass] = {
    "simple": RequestClass(
        name="simple", slo=SLO(ttft_s=2.0, tpot_s=0.25),
        min_model_params=0.0,
        input_len_range=(16, 96), output_len_range=(8, 48)),
    "standard": RequestClass(
        name="standard", slo=SLO(ttft_s=3.0, tpot_s=0.25),
        min_model_params=5e9,
        input_len_range=(32, 256), output_len_range=(16, 96)),
    "reasoning": RequestClass(
        name="reasoning", slo=SLO(ttft_s=8.0, tpot_s=0.35),
        min_model_params=1e10,
        input_len_range=(64, 512), output_len_range=(128, 384)),
}

#: Default traffic shares: mostly light interactive work, a heavy tail
#: of long-form reasoning.
DEFAULT_CLASS_MIX: Tuple[Tuple[str, float], ...] = (
    ("simple", 0.5), ("standard", 0.35), ("reasoning", 0.15))

_MASK64 = (1 << 64) - 1


def _hash_unit(request_id: int) -> float:
    """SplitMix64-style avalanche of the id into [0, 1).

    A pure integer function — no RNG object, no state — so the class of
    request *i* is recoverable anywhere (stream generator, router,
    scorer, any shard) from the id alone.
    """
    x = (request_id + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 2.0 ** 64


def parse_class_mix(text: str) -> Tuple[Tuple[str, float], ...]:
    """Parse a ``name[:weight],...`` mix spelling into normalized shares.

    ``"simple:2,reasoning:1"`` → ``(("simple", 2/3), ("reasoning",
    1/3))``; omitting weights (``"simple,reasoning"``) means equal
    shares. Unknown class names and non-positive weights raise with the
    known-class list in the message.
    """
    entries = []
    for field in text.split(","):
        field = field.strip()
        if not field:
            continue
        name, _, weight_text = field.partition(":")
        name = name.strip()
        if name not in REQUEST_CLASSES:
            raise ValueError(f"unknown request class {name!r}; known: "
                             f"{sorted(REQUEST_CLASSES)}")
        weight = float(weight_text) if weight_text else 1.0
        if weight <= 0:
            raise ValueError(f"class weight must be > 0, got {weight} "
                             f"for {name!r}")
        entries.append((name, weight))
    if not entries:
        raise ValueError("empty class mix")
    total = sum(weight for _, weight in entries)
    return MixClassifier(tuple((name, weight / total)
                               for name, weight in entries)).mix


@dataclasses.dataclass(frozen=True)
class MixClassifier:
    """Deterministic request classifier: pure hash of the id into shares.

    The classifier is the *contract* between workload and router: both
    sides compute the class from the request id alone, so no class tag
    has to travel on the wire (``ArrivingRequest`` stays four numeric
    fields and the sharded runner's columnar transfer is untouched).
    Pickles cleanly into sharded workers; equal mixes classify equally
    everywhere. It owns the mix rule every entry point applies: known,
    distinct classes with non-negative shares summing to 1.
    """

    mix: Tuple[Tuple[str, float], ...] = DEFAULT_CLASS_MIX

    def __post_init__(self) -> None:
        total = sum(share for _, share in self.mix)
        if not self.mix or abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix shares must sum to 1, got {total} "
                             f"({self.mix}); use parse_class_mix")
        for name, share in self.mix:
            if name not in REQUEST_CLASSES:
                raise ValueError(f"unknown request class {name!r}; known: "
                                 f"{sorted(REQUEST_CLASSES)}")
            if share < 0:
                raise ValueError(f"class share must be >= 0, got {share} "
                                 f"for {name!r}")
        names = [name for name, _ in self.mix]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class in mix: {names}")

    def class_of(self, request_id: int) -> str:
        """The class name for request *request_id*."""
        point = _hash_unit(request_id)
        acc = 0.0
        for name, share in self.mix:
            acc += share
            if point < acc:
                return name
        return self.mix[-1][0]

    def __call__(self, request: Union[ArrivingRequest, int]) -> str:
        request_id = getattr(request, "request_id", request)
        return self.class_of(request_id)


def iter_class_arrivals(rate_per_s: float, classifier: MixClassifier,
                        count: Optional[int] = None,
                        duration_s: Optional[float] = None,
                        seed: int = 0, shard: int = 0,
                        num_shards: int = 1) -> Iterator[ArrivingRequest]:
    """Lazy Poisson arrivals whose shapes follow each request's class.

    The class of request *i* is ``classifier.class_of(i)`` — a pure
    function of the id — and its input/output lengths draw from that
    class's ranges. Every shard consumes the identical RNG sequence
    (foreign requests' two shape draws included), so the union of
    ``num_shards`` sub-streams is bit-equal to the full stream, the
    same contract as :func:`repro.serving.arrivals.iter_poisson_arrivals`.
    """
    require_positive(rate_per_s, "rate_per_s")
    _check_stream_bounds(count, duration_s)
    _check_shard(shard, num_shards)

    def generate() -> Iterator[ArrivingRequest]:
        rng = random.Random(seed)
        now = 0.0
        request_id = 0
        while count is None or request_id < count:
            now += rng.expovariate(rate_per_s)
            if duration_s is not None and now > duration_s:
                return
            spec = REQUEST_CLASSES[classifier.class_of(request_id)]
            # The class is id-determined, so foreign shards draw from
            # the *same* ranges — the RNG stream stays aligned.
            input_len = rng.randint(*spec.input_len_range)
            output_len = rng.randint(*spec.output_len_range)
            if request_id % num_shards == shard:
                yield ArrivingRequest(
                    request_id=request_id,
                    arrival_s=now,
                    input_len=input_len,
                    output_len=output_len,
                )
            request_id += 1

    return generate()


@dataclasses.dataclass(frozen=True)
class ClassMixStream:
    """A replayable, splittable class-mix arrival stream as plain data.

    The class-workload analogue of
    :class:`~repro.workloads.streams.ShardableStream`: pickleable,
    :meth:`full` regenerates the identical stream, :meth:`shard`
    regenerates one worker's slice, and generated streams number
    requests sequentially so ``request_id`` doubles as stream position
    (the sharded merge's key). :meth:`classifier` exposes the
    deterministic classifier for routers and per-class scoring.
    """

    rate_per_s: float
    count: Optional[int] = None
    duration_s: Optional[float] = None
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_CLASS_MIX
    seed: int = 0

    def classifier(self) -> MixClassifier:
        """The classifier every consumer of this stream agrees on."""
        return MixClassifier(self.mix)

    @property
    def spec(self) -> WorkloadSpec:
        """Shape envelope over all mixed classes.

        Consumed by the sharded runner's cache warm-up
        (:func:`repro.cluster.shard.warm_caches`) to size the decode
        cost curves: the envelope covers the longest request any class
        can draw.
        """
        classes = [REQUEST_CLASSES[name] for name, _ in self.mix]
        return WorkloadSpec(
            name="class-mix",
            input_len_range=(min(c.input_len_range[0] for c in classes),
                             max(c.input_len_range[1] for c in classes)),
            output_len_range=(min(c.output_len_range[0] for c in classes),
                              max(c.output_len_range[1] for c in classes)),
            batch_size=1,
            priority_metric="tpot_s",
        )

    def full(self) -> Iterator[ArrivingRequest]:
        """The complete stream, regenerated from scratch."""
        return self.shard(0, 1)

    def shard(self, shard: int, num_shards: int) -> Iterator[ArrivingRequest]:
        """The sub-stream with ``request_id % num_shards == shard``."""
        return iter_class_arrivals(self.rate_per_s, self.classifier(),
                                   count=self.count,
                                   duration_s=self.duration_s,
                                   seed=self.seed, shard=shard,
                                   num_shards=num_shards)
