"""Trace data model: spans, instant events, and counter samples.

The paper's method is attribution: it explains CPU inference by mapping
wall time and counter activity onto phases (TTFT/TPOT, prefill vs decode,
per-batch occupancy). The simulator's analog of that perf/VTune timeline
is a trace — a set of *spans* (named time intervals on a *track*),
*instant events* (points in time), and *counter samples* (a numeric value
over time). Every simulator layer emits into this one model:

* **request tracks** (``request/<id>``) — one track per request, with a
  root ``request`` span covering arrival→completion and child spans
  ``queue_wait`` → ``prefill`` → ``decode[i]`` (→ ``finalize``) nested
  inside it;
* **replica tracks** (``replica/<name>``) — the server's view: admission
  ``prefill`` passes and fused ``decode`` iterations, each carrying batch
  size and compute-vs-memory leg attribution from the executor;
* **the cluster track** (``cluster``) — instant events for scale-up/down,
  drain, failure/requeue, plus a fleet queue-depth counter;
* **the engine track** (``engine``) — single-request phase spans from
  :class:`~repro.engine.inference.InferenceSimulator`.

Exporters (:mod:`repro.trace.export`) turn a :class:`Trace` into Chrome
trace-event JSON (loadable in Perfetto) or an ASCII timeline; analyses
(:mod:`repro.trace.analysis`) derive attribution breakdowns from it.
"""

import dataclasses
from typing import Dict, List, Mapping

#: Track names are ``group`` or ``group/instance``; these are the groups
#: the simulator layers emit on.
CLUSTER_TRACK = "cluster"
ENGINE_TRACK = "engine"


def request_track(request_id: int) -> str:
    """Track name for one request's lifecycle spans."""
    return f"request/{request_id}"


def replica_track(name: str) -> str:
    """Track name for one serving replica's iteration spans."""
    return f"replica/{name}"


@dataclasses.dataclass(frozen=True)
class Span:
    """A named, closed time interval on one track.

    Attributes:
        track: Track the span lives on (``request/3``, ``replica/spr-0``).
        name: Span label ("queue_wait", "prefill", "decode[4]", ...).
        start_s / end_s: Interval bounds in simulation seconds.
        category: Emitting layer ("request", "replica", "cluster",
            "engine"); exporters map it to the trace-event ``cat`` field.
        args: Structured payload (batch size, kv length, compute/memory
            leg seconds, ...). Values must be JSON-serializable.
    """

    track: str
    name: str
    start_s: float
    end_s: float
    category: str = "span"
    args: Mapping[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(
                f"span {self.name!r} on {self.track!r} ends before it "
                f"starts ({self.end_s} < {self.start_s})")

    @property
    def duration_s(self) -> float:
        """Span length in seconds."""
        return self.end_s - self.start_s


@dataclasses.dataclass(frozen=True)
class InstantEvent:
    """A point-in-time marker on one track (failure, requeue, scale-up)."""

    track: str
    name: str
    ts_s: float
    args: Mapping[str, object] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class CounterSample:
    """One sample of a named numeric series on a track."""

    track: str
    name: str
    ts_s: float
    value: float


@dataclasses.dataclass
class Trace:
    """A recorded simulation timeline.

    Containers are append-only while recording; readers treat a trace as
    immutable. Spans are not guaranteed to be time-sorted (emission order
    is completion order); use :meth:`spans_on` + sorting where order
    matters.
    """

    spans: List[Span] = dataclasses.field(default_factory=list,
                                          init=False)
    instants: List[InstantEvent] = dataclasses.field(default_factory=list,
                                                     init=False)
    counters: List[CounterSample] = dataclasses.field(default_factory=list,
                                                      init=False)

    def tracks(self) -> List[str]:
        """Every track that appears in the trace, sorted.

        Sorted by (group, instance) with numeric instances compared as
        numbers, so ``request/2`` precedes ``request/10``.
        """
        seen = {span.track for span in self.spans}
        seen.update(event.track for event in self.instants)
        seen.update(sample.track for sample in self.counters)

        def key(track: str):
            group, _, instance = track.partition("/")
            numeric = instance.isdigit()
            return (group, not numeric,
                    int(instance) if numeric else 0, instance)

        return sorted(seen, key=key)

    def spans_on(self, track: str) -> List[Span]:
        """Spans on *track*, sorted by (start, -duration) so parents
        precede the children they contain."""
        return sorted((s for s in self.spans if s.track == track),
                      key=lambda s: (s.start_s, -s.duration_s))

    def instants_on(self, track: str) -> List[InstantEvent]:
        """Instant events on *track* in time order."""
        return sorted((e for e in self.instants if e.track == track),
                      key=lambda e: e.ts_s)

    def request_ids(self) -> List[int]:
        """Request ids with at least one span, ascending."""
        ids = set()
        for span in self.spans:
            group, _, instance = span.track.partition("/")
            if group == "request" and instance:
                ids.add(int(instance))
        return sorted(ids)

    def replica_names(self) -> List[str]:
        """Replica names with at least one span, sorted."""
        names = set()
        for span in self.spans:
            group, _, instance = span.track.partition("/")
            if group == "replica" and instance:
                names.add(instance)
        return sorted(names)

    @property
    def end_s(self) -> float:
        """Last timestamp anywhere in the trace (0.0 when empty)."""
        stamps = [span.end_s for span in self.spans]
        stamps += [event.ts_s for event in self.instants]
        stamps += [sample.ts_s for sample in self.counters]
        return max(stamps) if stamps else 0.0

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)
