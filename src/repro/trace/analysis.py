"""Derived trace analyses: attribution, occupancy, utilization.

These are the simulated analogs of the paper's measurement products:
where a request's latency went (queue vs prefill vs decode vs work
thrown away by failures), how full the batch actually ran (the knob the
paper's batch sweeps turn), and when each replica was busy.
"""

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.trace.spans import Span, Trace, replica_track, request_track


@dataclasses.dataclass(frozen=True)
class RequestAttribution:
    """Where one request's end-to-end latency went.

    Attributes:
        request_id: Request identity.
        queue_s: Total time spent waiting in queues (every attempt).
        prefill_s: Prompt processing time of the successful attempt.
        decode_s: Decode iterations of the successful attempt, including
            stalls from co-scheduled admission prefills.
        finalize_s: Gap between the last generated token and retirement
            (the scheduler retires at the next iteration boundary).
        wasted_s: Prefill/decode work lost to a node failure and redone.
        lost_s: Residual in-system time no span covers (time stranded on
            a failed node between its last iteration and the requeue).
        total_s: Root-span duration, i.e. the request's e2e latency.
    """

    request_id: int
    queue_s: float
    prefill_s: float
    decode_s: float
    finalize_s: float
    wasted_s: float
    lost_s: float
    total_s: float

    @property
    def attributed_s(self) -> float:
        """Sum of the named components (== total_s up to fp noise)."""
        return (self.queue_s + self.prefill_s + self.decode_s
                + self.finalize_s + self.wasted_s + self.lost_s)


def _attribute_one(request_id: int, spans: List[Span],
                   last_requeue_s: Optional[float]) -> RequestAttribution:
    root = next(s for s in spans if s.name == "request")
    queue = prefill = decode = finalize = wasted = 0.0
    for span in spans:
        if span is root:
            continue
        duration = span.duration_s
        if span.name == "queue_wait":
            queue += duration
        elif last_requeue_s is not None and span.start_s < last_requeue_s:
            # Work started before the final requeue was thrown away when
            # its node failed; the successful attempt redid it. A doomed
            # iteration can straddle the failure stamp (iterations are
            # atomic blocks), so clip it there — the remainder falls
            # into ``lost_s`` with the rest of the stranded time.
            wasted += min(span.end_s, last_requeue_s) - span.start_s
        elif span.name == "prefill":
            prefill += duration
        elif span.name.startswith("decode"):
            decode += duration
        elif span.name == "finalize":
            finalize += duration
    total = root.duration_s
    lost = max(0.0, total - (queue + prefill + decode + finalize + wasted))
    return RequestAttribution(request_id=request_id, queue_s=queue,
                              prefill_s=prefill, decode_s=decode,
                              finalize_s=finalize, wasted_s=wasted,
                              lost_s=lost, total_s=total)


def request_attribution(trace: Trace) -> Dict[int, RequestAttribution]:
    """Per-request latency breakdown, keyed by request id.

    Only requests whose root ``request`` span was recorded (i.e. that
    completed) are attributed. A request that was requeued by a node
    failure has the work preceding its last ``requeue`` instant counted
    as ``wasted_s``.
    """
    out: Dict[int, RequestAttribution] = {}
    for request_id in trace.request_ids():
        track = request_track(request_id)
        spans = trace.spans_on(track)
        if not any(s.name == "request" for s in spans):
            continue
        requeues = [e.ts_s for e in trace.instants_on(track)
                    if e.name == "requeue"]
        out[request_id] = _attribute_one(
            request_id, spans, max(requeues) if requeues else None)
    return out


def batch_occupancy_histogram(trace: Trace) -> Dict[int, float]:
    """Seconds the fleet spent decoding at each batch size.

    Sums replica-track ``decode`` span durations by their ``batch_size``
    argument — the duration-weighted occupancy distribution that decides
    how much of the paper's batch-scaling headroom a trace actually
    used.
    """
    histogram: Dict[int, float] = {}
    for span in trace.spans:
        if span.name != "decode" or span.category != "replica":
            continue
        size = int(span.args["batch_size"])
        histogram[size] = histogram.get(size, 0.0) + span.duration_s
    return dict(sorted(histogram.items()))


def replica_utilization_timeline(trace: Trace, buckets: int = 20
                                 ) -> Dict[str, List[Tuple[float, float]]]:
    """Per-replica (bucket_start_s, busy_fraction) series.

    Splits [0, trace.end_s] into *buckets* equal windows and reports the
    fraction of each window covered by the replica's prefill/decode
    spans — the fleet-level view of the single-number
    :attr:`~repro.cluster.metrics.NodeStats.utilization`.
    """
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    horizon = trace.end_s
    out: Dict[str, List[Tuple[float, float]]] = {}
    for name in trace.replica_names():
        spans = trace.spans_on(replica_track(name))
        if horizon <= 0.0:
            out[name] = []
            continue
        step = horizon / buckets
        series: List[Tuple[float, float]] = []
        for bucket in range(buckets):
            lo, hi = bucket * step, (bucket + 1) * step
            busy = sum(max(0.0, min(span.end_s, hi) - max(span.start_s, lo))
                       for span in spans)
            series.append((lo, min(1.0, busy / step)))
        out[name] = series
    return out
