"""Streaming workloads: arrival generators that never build a list.

The cluster simulator consumes arrivals lazily (it buffers exactly one
unrouted request), so a million-request trace costs O(1) memory when the
workload side is a generator too. This module is the workload-level
face of that contract:

* :func:`stream_workload` — a :class:`~repro.workloads.generator.WorkloadSpec`
  turned into a lazy Poisson or bursty arrival stream, bounded by a
  request count, a simulated duration, or both;
* :class:`ShardableStream` — the same stream as a replayable,
  splittable spec.

Streams must be time-ordered (the simulator enforces this) and every
generator here is deterministic for fixed parameters, so a benchmark can
regenerate the identical stream for a second pass (e.g. exact-mode
comparison or SLO scoring) instead of holding it in memory.
"""

import dataclasses
from typing import Iterator, Optional

from repro.serving.arrivals import (
    ArrivingRequest,
    iter_bursty_arrivals,
    iter_poisson_arrivals,
)
from repro.workloads.generator import WorkloadSpec


def stream_workload(spec: Optional[WorkloadSpec], rate_per_s: float,
                    count: Optional[int] = None,
                    duration_s: Optional[float] = None,
                    burst_rate_per_s: Optional[float] = None,
                    seed: int = 0, shard: int = 0,
                    num_shards: int = 1) -> Iterator[ArrivingRequest]:
    """Lazy arrival stream shaped by *spec*.

    Poisson at *rate_per_s* by default; passing *burst_rate_per_s* makes
    the stream two-phase bursty (10 s windows at the burst rate every
    60 s, :func:`~repro.serving.arrivals.iter_bursty_arrivals`'
    default). Bounded by *count* requests and/or *duration_s* simulated
    seconds — at least one bound is required.
    ``(shard, num_shards)`` selects the deterministic sub-stream of
    requests with ``request_id % num_shards == shard`` (the union of
    sub-streams is bit-equal to the full stream; see
    :func:`~repro.serving.arrivals.iter_poisson_arrivals`).
    """
    if burst_rate_per_s is not None:
        return iter_bursty_arrivals(rate_per_s, burst_rate_per_s,
                                    count=count, duration_s=duration_s,
                                    spec=spec, seed=seed,
                                    shard=shard, num_shards=num_shards)
    return iter_poisson_arrivals(rate_per_s, count=count,
                                 duration_s=duration_s, spec=spec,
                                 seed=seed, shard=shard,
                                 num_shards=num_shards)


@dataclasses.dataclass(frozen=True)
class ShardableStream:
    """A replayable, splittable arrival stream as plain data.

    The sharded cluster runner (:func:`repro.cluster.shard.run_sharded`)
    ships this spec to worker processes instead of a generator: it is
    pickleable, every call to :meth:`full` regenerates the identical
    stream, and :meth:`shard` regenerates exactly one worker's slice
    without materializing the rest. Generated streams number requests
    sequentially, so ``request_id`` doubles as the request's position in
    the full stream — the property the deterministic shard merge keys on.

    Fields mirror :func:`stream_workload`; ``burst_rate_per_s=None``
    means plain Poisson.
    """

    rate_per_s: float
    count: Optional[int] = None
    duration_s: Optional[float] = None
    spec: Optional[WorkloadSpec] = None
    burst_rate_per_s: Optional[float] = None
    seed: int = 0

    def full(self) -> Iterator[ArrivingRequest]:
        """The complete stream, regenerated from scratch."""
        return self.shard(0, 1)

    def shard(self, shard: int, num_shards: int) -> Iterator[ArrivingRequest]:
        """The sub-stream with ``request_id % num_shards == shard``."""
        return stream_workload(self.spec, self.rate_per_s, count=self.count,
                               duration_s=self.duration_s,
                               burst_rate_per_s=self.burst_rate_per_s,
                               seed=self.seed, shard=shard,
                               num_shards=num_shards)
