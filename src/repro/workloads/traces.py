"""Workload traces: a simple persisted request-stream format.

Production inference studies replay traces; this environment has none
(see DESIGN.md substitutions), so traces are *synthesized* from workload
specs, persisted to a small CSV-like format, and replayed into the
serving simulator. The round-trip keeps experiments reproducible and
shareable as plain files.

Format (one record per line, header included)::

    request_id,arrival_s,input_len,output_len
"""

import dataclasses
from typing import List, Sequence

from repro.serving.arrivals import ArrivingRequest, poisson_arrivals
from repro.workloads.generator import WorkloadSpec
from repro.workloads.streams import stream_trace_file

_HEADER = "request_id,arrival_s,input_len,output_len"


@dataclasses.dataclass(frozen=True)
class Trace:
    """A named, replayable request stream.

    Attributes:
        name: Trace identifier.
        requests: Arrival-ordered request records.
    """

    name: str
    requests: List[ArrivingRequest]

    @property
    def duration_s(self) -> float:
        """Arrival span of the trace."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_s - self.requests[0].arrival_s

    @property
    def mean_rate(self) -> float:
        """Mean arrival rate over the trace span (req/s)."""
        if len(self.requests) < 2 or self.duration_s == 0:
            return 0.0
        return (len(self.requests) - 1) / self.duration_s


def synthesize_trace(name: str, spec: WorkloadSpec, rate_per_s: float,
                     count: int, seed: int = 0) -> Trace:
    """Build a trace from a workload spec and a Poisson arrival process."""
    return Trace(name=name,
                 requests=poisson_arrivals(rate_per_s, count, spec, seed))


def save_trace(trace: Trace, path: str) -> None:
    """Persist *trace* to the CSV-like format."""
    with open(path, "w") as handle:
        handle.write(f"# trace: {trace.name}\n")
        handle.write(_HEADER + "\n")
        for request in trace.requests:
            handle.write(f"{request.request_id},{request.arrival_s!r},"
                         f"{request.input_len},{request.output_len}\n")


def load_trace(path: str) -> Trace:
    """Load a trace written by :func:`save_trace`, in arrival order.

    Records are parsed by :func:`~repro.workloads.streams.stream_trace_file`;
    the name comes from the ``# trace:`` header line (the path if absent).
    """
    with open(path) as handle:
        first = handle.readline().strip()
    name = first.split(":", 1)[1].strip() \
        if first.startswith("# trace:") else path
    requests = sorted(stream_trace_file(path), key=lambda r: r.arrival_s)
    return Trace(name=name, requests=requests)


def merge_traces(name: str, traces: Sequence[Trace]) -> Trace:
    """Interleave several traces into one (ids reassigned, order by time)."""
    merged = sorted((r for t in traces for r in t.requests),
                    key=lambda r: r.arrival_s)
    renumbered = [dataclasses.replace(r, request_id=i)
                  for i, r in enumerate(merged)]
    return Trace(name=name, requests=renumbered)
