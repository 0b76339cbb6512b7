"""Discrete-event, multi-replica serving simulation.

The event loop dispatches *external* events in global-time order —
scheduled node failures and drains, autoscaler samples and provisioned
replicas coming online off a binary heap, and request arrivals from the
one unrouted arrival it keeps beside the heap — and, before
dispatching one at time ``t``, brings replicas forward with
:meth:`~repro.cluster.node.ReplicaNode.advance_to`\\ ``(t)`` (all
scheduler iterations starting strictly before ``t``). Administrative
events and progress ticks advance every active replica. An arrival
advances only the replicas its routing decision reads
(:meth:`~repro.cluster.router.Router.observes`) and then the chosen one,
so a replica the decision never looks at keeps one coalesced decode
stretch across any number of arrivals. The outcome does not depend on
where a stretch is cut: the fast-forward adds the same step costs in
the same order either way. Replica iterations never enter the heap at
all: a replica's whole pure-decode stretch between the events it sees
is priced in one closed-form range lookup (the event-horizon
fast-forward), which is what makes million-request traces tractable.

The fleet queue-depth timeline is rebuilt after the run
(:func:`queue_depth_timeline`) from per-dispatch routed counts and the
replicas' admission stamps, so no dispatch scans the fleet.

Ties resolve administrative-before-arrival (scheduled, online, sample,
then arrival; insertion order within a class), and an iteration starting
exactly at ``t`` runs *after* the events at ``t`` — so a failure at ``t``
kills work before the fleet computes at ``t``, and an arrival at ``t``
is admissible by an iteration starting at ``t``, matching the
single-node scheduler's admission rule. That shared rule is what makes a
one-replica cluster reproduce ``run_continuous`` bit-exactly.

Arrivals may be a list *or* a lazy iterator (see
:mod:`repro.workloads.streams`): the loop holds at most one unrouted
arrival at a time, so a million-request trace never materializes as a
list. Iterator streams must already be time-ordered; sequences are
sorted.

Failures requeue: a failed replica's queued and in-flight requests are
rerouted immediately with their original arrival stamps (TTFT keeps
charging the lost time) and their already-generated tokens are accounted
as wasted work. No request is ever dropped; if the *last* routable
replica fails the simulation raises instead of losing traffic.

``exact=True`` runs the same event loop but steps every replica
iteration individually with unmemoized pricing — the reference the
parity suite and the cluster benchmark compare the fast path against.
"""

import dataclasses
import heapq
from array import array
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.autoscaler import Autoscaler
from repro.cluster.events import (
    DRAIN,
    FAILURE,
    ONLINE,
    SCALE_DOWN,
    SCALE_UP,
    ClusterEvent,
)
from repro.cluster.metrics import ClusterReport, NodeStats
from repro.cluster.node import ReplicaNode
from repro.cluster.router import Router
from repro.serving.arrivals import ArrivingRequest
from repro.trace.spans import CLUSTER_TRACK, request_track
from repro.trace.tracer import NOOP_TRACER, Tracer

# Same-timestamp dispatch order (see module docstring): administrative
# events before arrivals; replica iterations at the same stamp run when
# the *next* event's advance_to sweeps past them.
_RANK_SCHEDULED = 0
_RANK_ONLINE = 1
_RANK_SAMPLE = 2
_RANK_ARRIVAL = 3

#: Progress callback signature: (events dispatched, simulated time,
#: requests completed so far).
ProgressFn = Callable[[int, float, int], None]


def queue_depth_timeline(routed: Iterable[Tuple[float, int]],
                         admission_stamps: Iterable[Iterable[float]]
                         ) -> List[Tuple[float, int]]:
    """Fleet queue depth after each dispatch, rebuilt from compact logs.

    *routed* holds one ``(time_s, count)`` pair per dispatch, in
    dispatch order: requests submitted to a replica queue so far, minus
    those a failure cleared out of one. *admission_stamps* holds each
    replica's time-ordered :attr:`~repro.cluster.node.ReplicaNode.
    admission_stamps`. The depth after a dispatch at ``t`` subtracts
    every admission whose iteration started strictly before ``t`` —
    exactly the iterations an eager loop would have run by then — so it
    does not matter when the loop actually advanced each replica, or in
    which process. The stamps stream through a lazy merge of the
    per-replica logs.
    """
    stamps = heapq.merge(*admission_stamps)
    head = next(stamps, None)
    admitted = 0
    timeline: List[Tuple[float, int]] = []
    for now, count in routed:
        while head is not None and head < now:
            admitted += 1
            head = next(stamps, None)
        timeline.append((now, count - admitted))
    return timeline


@dataclasses.dataclass(frozen=True)
class NodeFailure:
    """Kill *node* at *time_s*; its requests requeue through the router."""

    time_s: float
    node: str


@dataclasses.dataclass(frozen=True)
class NodeDrain:
    """Stop routing to *node* at *time_s*; in-flight work completes."""

    time_s: float
    node: str


class ClusterSimulator:
    """Serves an arrival stream across a fleet of replicas.

    Args:
        nodes: Initial fleet (names must be unique).
        router: Routing policy.
        autoscaler: Optional queue-driven scaler; adds/drains replicas
            while the simulation runs.
        events: Scheduled :class:`NodeFailure` / :class:`NodeDrain`
            events.
        tracer: Timeline sink; replaces every adopted node's tracer so
            the whole fleet records into one trace. The default no-op
            discards everything.
        exact: Replaces every adopted node's exact mode, as *tracer*
            does its tracer. ``True`` steps and prices every replica
            iteration individually (the reference loop); the default
            ``False`` fast-forwards pure-decode stretches. Both agree on
            every report field to ≤1e-9 relative.
    """

    def __init__(self, nodes: Sequence[ReplicaNode], router: Router,
                 autoscaler: Optional[Autoscaler] = None,
                 events: Sequence[object] = (),
                 tracer: Tracer = NOOP_TRACER,
                 exact: bool = False):
        if not nodes:
            raise ValueError("a cluster needs at least one replica")
        if not isinstance(exact, bool):
            raise ValueError(f"exact must be a bool, got {exact!r}")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"replica names must be unique, got {names}")
        self.nodes: List[ReplicaNode] = list(nodes)
        self.router = router
        self.autoscaler = autoscaler
        self.scheduled = sorted(events, key=lambda e: e.time_s)
        self.tracer = tracer
        self.exact = exact
        for node in self.nodes:
            node.tracer = tracer
            node.exact = exact

    # -- helpers --------------------------------------------------------------

    def _node(self, name: str) -> ReplicaNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no replica named {name!r}; fleet: "
                       f"{[n.name for n in self.nodes]}")

    def _any_work(self) -> bool:
        return any(node.has_work for node in self.nodes if node.active)

    def _completed_count(self) -> int:
        return sum(len(node.completed) for node in self.nodes)

    @staticmethod
    def _arrival_stream(arrivals) -> Iterator[ArrivingRequest]:
        """Arrivals as a time-ordered iterator (sorting sequences)."""
        if isinstance(arrivals, Sequence):
            return iter(sorted(arrivals, key=lambda r: r.arrival_s))
        return iter(arrivals)

    # -- event loop -----------------------------------------------------------

    def run(self, arrivals: Iterable[ArrivingRequest],
            progress: Optional[ProgressFn] = None,
            progress_every: int = 4096,
            merge_log: Optional[object] = None) -> ClusterReport:
        """Simulate the fleet over *arrivals* and aggregate the outcome.

        *arrivals* may be any iterable; an iterator is consumed lazily
        (one unrouted arrival buffered) and must be time-ordered. An
        optional *progress* callback fires every *progress_every*
        dispatched events with ``(events, simulated_time_s, completed)``.

        *merge_log* is the sharded runner's hook
        (:class:`repro.cluster.shard.ShardMergeLog`): when attached, the
        loop reports every dispatched event — ``(rank, time, routed
        count after)`` — so a per-group run can stamp its events with
        their *global* total-order keys for the deterministic merge.
        Only meaningful for autoscaler-free runs (the sharded runner
        rejects autoscaling before it gets here).
        """
        stream = self._arrival_stream(arrivals)
        first = next(stream, None)
        if first is None and merge_log is None:
            # A sharded sub-run (merge_log attached) may legitimately
            # own a group no arrival doors to; it still dispatches its
            # slice of the failure/drain schedule.
            raise ValueError("no arrivals to serve")

        heap: list = []
        serial = 0

        def push(time_s: float, rank: int, payload: object) -> None:
            nonlocal serial
            heapq.heappush(heap, (time_s, rank, serial, payload))
            serial += 1

        for event in self.scheduled:
            push(event.time_s, _RANK_SCHEDULED, event)
        # The one unrouted arrival waits beside the heap, not in it.
        arrival = first
        last_arrival_s = first.arrival_s if first is not None else 0.0
        arrived = 1 if first is not None else 0
        provisioning = 0
        if self.autoscaler is not None:
            push(self.autoscaler.sample_interval_s, _RANK_SAMPLE, None)

        # Per dispatch: its time and the requests routed so far minus
        # those a failure cleared (see queue_depth_timeline). A list of
        # the event stamps shares their float objects with the timeline.
        dispatch_times: List[float] = []
        dispatch_routed = array("q")
        routed = 0
        log: List[ClusterEvent] = []
        tracer = self.tracer
        wasted_tokens = 0
        requeued = 0
        failed_names = set()
        events_dispatched = 0

        def record(event: ClusterEvent) -> None:
            log.append(event)
            if merge_log is not None:
                merge_log.on_event(event)
            if tracer.enabled:
                tracer.instant(CLUSTER_TRACK, event.kind, event.time_s,
                               args={"node": event.node, **event.details})

        def route(request: ArrivingRequest, now: float,
                  ready_s: Optional[float] = None) -> None:
            nonlocal routed
            observed = self.router.observes(request, self.nodes)
            for node in observed:
                if node.active:
                    node.advance_to(now)
            node = self.router.select(request, self.nodes, now)
            if node not in observed:
                # Run the chosen replica's iterations that start before
                # *now* first: the request must not join one already
                # under way, and peak_queue counts the queue as of now.
                node.advance_to(now)
            node.submit(request, ready_s=ready_s)
            routed += 1

        def advance_fleet(now: float) -> None:
            for node in self.nodes:
                if node.active:
                    node.advance_to(now)

        while heap or arrival is not None:
            if arrival is not None and (not heap
                                        or arrival.arrival_s < heap[0][0]):
                # Arrivals rank last at equal times, so the arrival goes
                # first only strictly before the heap's earliest event.
                now, rank = arrival.arrival_s, _RANK_ARRIVAL
            else:
                now, rank, _serial, payload = heapq.heappop(heap)
                advance_fleet(now)

            if rank == _RANK_SCHEDULED:
                event = payload
                target = self._node(event.node)
                if isinstance(event, NodeFailure):
                    if target.active:
                        routed -= target.queue_len
                        lost, wasted = target.fail()
                        failed_names.add(target.name)
                        wasted_tokens += wasted
                        requeued += len(lost)
                        record(ClusterEvent(FAILURE, now, target.name,
                                            {"requeued": len(lost),
                                             "wasted_tokens": wasted}))
                        for request in sorted(lost,
                                              key=lambda r: r.arrival_s):
                            if tracer.enabled:
                                tracer.instant(
                                    request_track(request.request_id),
                                    "requeue", now,
                                    args={"from": target.name})
                            route(request, now, ready_s=now)
                else:
                    target.drain()
                    record(ClusterEvent(DRAIN, now, target.name))
            elif rank == _RANK_ONLINE:
                node = payload
                node.tracer = tracer
                node.exact = self.exact
                provisioning -= 1
                self.nodes.append(node)
                record(ClusterEvent(ONLINE, now, node.name,
                                    {"platform": node.platform.name}))
            elif rank == _RANK_SAMPLE:
                # Sampling stops for good once the fleet is certainly
                # done: no unrouted arrival, no queued/in-flight work as
                # of this instant, nothing provisioning.
                if not (arrival is not None or provisioning
                        or self._any_work()):
                    continue
                decision = self.autoscaler.decide(self.nodes, provisioning)
                if decision == "up":
                    node = self.autoscaler.template.build(
                        self.autoscaler.next_name())
                    online_at = now + self.autoscaler.provisioning_lag_s
                    provisioning += 1
                    push(online_at, _RANK_ONLINE, node)
                    record(ClusterEvent(SCALE_UP, now, node.name,
                                        {"online_at_s": online_at}))
                elif decision == "down":
                    target = self.autoscaler.pick_drain_target(self.nodes)
                    target.drain()
                    record(ClusterEvent(SCALE_DOWN, now, target.name))
                push(now + self.autoscaler.sample_interval_s,
                     _RANK_SAMPLE, None)
            else:  # arrival
                route(arrival, now)
                arrival = next(stream, None)
                if arrival is not None:
                    if arrival.arrival_s < last_arrival_s:
                        raise ValueError(
                            "streaming arrivals must be time-ordered: "
                            f"{arrival.arrival_s} after {last_arrival_s}")
                    last_arrival_s = arrival.arrival_s
                    arrived += 1

            events_dispatched += 1
            dispatch_times.append(now)
            dispatch_routed.append(routed)
            if merge_log is not None:
                merge_log.on_dispatch(rank, now, routed)
            if progress is not None and \
                    events_dispatched % progress_every == 0:
                advance_fleet(now)
                progress(events_dispatched, now, self._completed_count())

        # No external events remain: run every replica dry.
        for node in self.nodes:
            if node.active:
                node.advance_to(None)

        timeline = queue_depth_timeline(
            zip(dispatch_times, dispatch_routed),
            [node.admission_stamps for node in self.nodes])
        if tracer.enabled:
            for now, depth in timeline:
                tracer.counter(CLUSTER_TRACK, "fleet_queue_depth", now,
                               depth)

        completed = sorted(
            (record for node in self.nodes for record in node.completed),
            key=lambda r: r.finish_s)
        if len(completed) != arrived:
            raise RuntimeError(
                f"cluster lost requests: {arrived} arrived, "
                f"{len(completed)} completed")
        makespan = max(record.finish_s for record in completed) \
            if completed else 0.0
        if progress is not None:
            progress(events_dispatched, makespan, len(completed))
        node_stats = [
            NodeStats(
                name=node.name,
                platform=node.platform.name,
                busy_s=node.busy_s,
                utilization=node.busy_s / makespan if makespan else 0.0,
                iterations=node.iterations,
                completed=len(node.completed),
                generated_tokens=node.generated_tokens,
                peak_queue=node.peak_queue,
                failed=node.name in failed_names,
                drained=node.draining and node.name not in failed_names,
                scheduler=node.scheduler_name,
                model=node.model.name,
                backend=node.backend_label,
                price_usd=node.price_usd,
            )
            for node in self.nodes
        ]
        return ClusterReport(
            router=self.router.name,
            completed=completed,
            node_stats=node_stats,
            makespan_s=makespan,
            generated_tokens=sum(node.generated_tokens
                                 for node in self.nodes),
            wasted_tokens=wasted_tokens,
            requeued_requests=requeued,
            queue_depth_timeline=timeline,
            cluster_events=log,
            router_counters=dict(getattr(self.router, "counters",
                                         dict)()),
        )
