"""Sharded cluster simulation: replica groups in worker processes.

A fleet routed by :class:`~repro.cluster.router.ShardRouter` decomposes
into independent simulations, one per replica group: the router's door
is a pure function of the request id, each group's local policy only
ever observes its own replicas, and a replica's iteration timing depends
only on its own queue — so simulating each group alone, against its own
sub-stream of arrivals and its own slice of the failure/drain schedule,
runs exactly the iterations the global event loop would have run, at the
same timestamps (splitting a coalesced decode run at different horizon
boundaries is bit-identical; see
:meth:`repro.cluster.node.ReplicaNode._fast_forward`). The
single-process loop relies on the same property to advance only the
replicas a routing decision reads, so inside one process a
``ShardRouter`` fleet never advances a group for another group's
arrival; worker processes add parallelism on top.
:func:`run_sharded` exploits that: worker processes (``multiprocessing``,
fork when available) simulate the groups from pickled
:class:`~repro.cluster.config.ReplicaSpec`\\ s, warm their per-process
memo caches up front (:func:`warm_caches`), and a deterministic merge
reassembles one :class:`~repro.cluster.metrics.ClusterReport` that is
bit-identical (integers, event stamps) to the single-process run for
any worker count.

**The merge protocol.** Every externally dispatched event owns a global
total-order key ``(time_s, rank, index)`` — rank is the single-process
loop's administrative-before-arrival tie-break
(:data:`~repro.cluster.simulator._RANK_SCHEDULED` <
:data:`~repro.cluster.simulator._RANK_ARRIVAL`) and index is the
event's position in the globally sorted schedule (scheduled events) or
the full arrival stream (arrivals). Within one group, scheduled events
dispatch in global sorted order and arrivals in stream order, so a
group run consumes its pre-computed key sequences in order
(:class:`ShardMergeLog`) and the parent merges per-group streams by
key: cluster events merge-sort directly; per-request records
concatenate per node in fleet order and stable-sort by finish time
(reproducing the single loop's sort); node stats reorder by fleet index
with utilization recomputed against the global makespan.

The fleet queue-depth timeline needs more than concatenation — its
depth at each dispatch sums *every* group's unadmitted queue, which no
single group observed. Each group therefore reports its dispatches
``(key, group routed count after)`` and its replicas'
:attr:`~repro.cluster.node.ReplicaNode.admission_stamps`. Replaying the
dispatches in key order gives the fleet's routed count at each one, and
:func:`~repro.cluster.simulator.queue_depth_timeline` — the same
rebuild the single-process loop runs — subtracts every admission whose
iteration started strictly before the dispatch.
"""

import dataclasses
import gc
import heapq
import multiprocessing
import traceback
from array import array
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.events import ClusterEvent
from repro.cluster.metrics import ClusterReport, NodeStats
from repro.cluster.router import ShardRouter
from repro.cluster.simulator import (
    _RANK_ARRIVAL,
    _RANK_SCHEDULED,
    ClusterSimulator,
    ProgressFn,
    queue_depth_timeline,
)
from repro.serving.arrivals import ArrivingRequest, _spec_ranges
from repro.serving.scheduler import BatchingSimulator, CompletedRequest

#: A global dispatch key: (time_s, rank, global index).
Key = Tuple[float, int, int]


class ShardMergeLog:
    """Stamps one group's dispatches with their global total-order keys.

    Built by the group runner with the group's key sequences — the
    global indices of its scheduled events (in globally sorted order)
    and of its arrivals (in stream order). The group's event loop
    reports each dispatch (:meth:`on_dispatch`) and each recorded
    cluster event (:meth:`on_event`); because dispatch order within a
    group equals global order restricted to the group, keys are simply
    consumed front to back.
    """

    def __init__(self, scheduled_indices: Iterable[int],
                 arrival_indices: "deque"):
        self._scheduled = deque(scheduled_indices)
        self._arrivals = arrival_indices
        #: (key, group routed count after the dispatch), in key order.
        self.dispatches: List[Tuple[Key, int]] = []
        #: (key, event) for every recorded ClusterEvent, in key order.
        self.events: List[Tuple[Key, ClusterEvent]] = []
        self._pending_events: List[ClusterEvent] = []

    def on_event(self, event: ClusterEvent) -> None:
        """A cluster event recorded while dispatching; keyed next."""
        self._pending_events.append(event)

    def on_dispatch(self, rank: int, now: float, routed: int) -> None:
        """One event dispatched at *now*; assign its global key.

        *routed* is the group's count of requests submitted to a
        replica queue minus those failures cleared; the merge turns it
        into queue depths with the replicas' admission stamps.
        """
        if rank == _RANK_SCHEDULED:
            index = self._scheduled.popleft()
        elif rank == _RANK_ARRIVAL:
            index = self._arrivals.popleft()
        else:
            raise RuntimeError(
                "sharded runs cannot dispatch autoscaler events "
                f"(rank {rank})")
        key = (now, rank, index)
        self.dispatches.append((key, routed))
        for event in self._pending_events:
            self.events.append((key, event))
        self._pending_events.clear()


@dataclasses.dataclass
class _GroupResult:
    """Everything a worker reports back for one replica group."""

    group: int
    indices: List[int]
    node_stats: List[NodeStats]
    completed_per_node: List[List[CompletedRequest]]
    dispatches: List[Tuple[Key, int]]
    #: Each replica's admission stamps, in group order.
    admission_stamps: List[array]
    events: List[Tuple[Key, ClusterEvent]]
    generated_tokens: int
    wasted_tokens: int
    requeued: int
    arrived: int
    #: The group-local routing policy's integer decision counters
    #: (e.g. tiered routed/spill/fallback counts); merged by summation.
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)


#: Column layout for shipping CompletedRequest records between
#: processes. int64/float64 round-trip Python ints and floats
#: bit-exactly, and numpy arrays pickle as raw buffers — microseconds
#: for a column a dataclass-instance pickle would spend seconds on.
_COMPLETED_COLUMNS = (("request_id", np.int64), ("arrival_s", np.float64),
                      ("start_s", np.float64), ("first_token_s", np.float64),
                      ("finish_s", np.float64))


def _pack_result(result: _GroupResult) -> tuple:
    """Flatten a group result into numpy columns for the result queue.

    A large run's payload is dominated by per-request records and
    per-dispatch tuples; as object graphs they pickle one instance at a
    time, as columns they serialize buffer-at-once. Inverted bit-exactly
    by :func:`_unpack_result` in the parent.
    """
    completed_cols = []
    for completed in result.completed_per_node:
        count = len(completed)
        completed_cols.append(tuple(
            np.fromiter((getattr(record, field) for record in completed),
                        dtype, count)
            for field, dtype in _COMPLETED_COLUMNS))
    count = len(result.dispatches)
    dispatch_cols = (
        np.fromiter((key[0] for key, _ in result.dispatches),
                    np.float64, count),
        np.fromiter((key[1] for key, _ in result.dispatches),
                    np.int64, count),
        np.fromiter((key[2] for key, _ in result.dispatches),
                    np.int64, count),
        np.fromiter((routed for _, routed in result.dispatches),
                    np.int64, count))
    return (result.group, result.indices, result.node_stats, completed_cols,
            dispatch_cols, result.admission_stamps, result.events,
            result.generated_tokens, result.wasted_tokens, result.requeued,
            result.arrived, result.counters)


def _unpack_result(payload: tuple) -> _GroupResult:
    """Rebuild a :class:`_GroupResult` from :func:`_pack_result` columns."""
    (group, indices, node_stats, completed_cols, dispatch_cols,
     admission_stamps, events, generated_tokens, wasted_tokens,
     requeued, arrived, counters) = payload
    completed_per_node = [
        [CompletedRequest(*row) for row in zip(*(col.tolist()
                                                 for col in cols))]
        for cols in completed_cols]
    d_time, d_rank, d_index, d_routed = (col.tolist()
                                         for col in dispatch_cols)
    dispatches = [((time_s, rank, index), routed)
                  for time_s, rank, index, routed
                  in zip(d_time, d_rank, d_index, d_routed)]
    return _GroupResult(group=group, indices=indices, node_stats=node_stats,
                        completed_per_node=completed_per_node,
                        dispatches=dispatches,
                        admission_stamps=admission_stamps,
                        events=events, generated_tokens=generated_tokens,
                        wasted_tokens=wasted_tokens, requeued=requeued,
                        arrived=arrived, counters=counters)


def warm_caches(config: ClusterConfig, kv_horizon: int = 256) -> None:
    """Warm this process's pricing memo caches for *config*'s fleet.

    Memo tables — op-graph construction, GEMM-efficiency interpolation,
    and the :class:`~repro.engine.stepcost.DecodeCostTable` prefix
    curves — are **per process**: a freshly forked/spawned worker starts
    cold, and the first events it dispatches would pay the build cost,
    skewing shard timing. Workers call this on startup: for each
    distinct replica flavor in the fleet it builds the cost model and
    prices one decode series per batch size out to *kv_horizon*, which
    populates the shared table registry and every cache underneath it.
    (Prefill memos stay lazy — they are keyed by request-specific prompt
    lengths.) Cheap when the caches are already warm, so calling it in
    an already-hot parent is harmless.
    """
    seen = set()
    for spec in config.replicas:
        key = (spec.platform.name, spec.model.name,
               spec.backend.label if spec.backend is not None else None,
               spec.max_batch)
        if key in seen:
            continue
        seen.add(key)
        simulator = BatchingSimulator(spec.platform, spec.model,
                                      spec.max_batch, spec.config,
                                      spec.backend)
        table = simulator.cost_table
        for batch in range(1, spec.max_batch + 1):
            table.step_times(batch, 1, 1 + kv_horizon)


def _warmup_horizon(arrivals_by_group: Dict[int, object]) -> int:
    """The KV horizon that covers every request in the workload.

    Warming the decode-cost curves out to the longest request's final
    context length means a forked worker never extends a curve mid-run —
    extension is per-process work, and with W workers the same segment
    would otherwise be rebuilt W times. Materialized partitions are
    scanned for the true maximum; splittable stream specs are read off
    their shape ranges; defaults fall back to :func:`warm_caches`'s
    stock horizon.
    """
    horizon = 0
    for entries in arrivals_by_group.values():
        if hasattr(entries, "shard"):
            input_range, output_range = _spec_ranges(
                getattr(entries, "spec", None))
            horizon = max(horizon, input_range[1] + output_range[1])
        else:
            for _, request in entries:
                length = request.input_len + request.output_len
                if length > horizon:
                    horizon = length
    return horizon or 256


def _group_stream(arrivals: object, group: int, num_groups: int,
                  positions: "deque") -> Iterator[ArrivingRequest]:
    """The group's arrival sub-stream, recording global positions.

    *arrivals* is either a list of ``(position, request)`` pairs the
    parent partitioned, or a splittable stream spec (an object with a
    ``shard(group, num_groups)`` method whose generated requests are
    numbered by stream position, e.g.
    :class:`repro.workloads.streams.ShardableStream`) the worker
    regenerates locally. Each yielded request's global stream position
    is appended to *positions* just before the yield — the simulator
    buffers at most one unrouted arrival, and dispatches them in yield
    order, so the merge log pops positions in lock-step.
    """
    if hasattr(arrivals, "shard"):
        for request in arrivals.shard(group, num_groups):
            positions.append(request.request_id)
            yield request
    else:
        for position, request in arrivals:
            positions.append(position)
            yield request


def _run_group(config: ClusterConfig, router: ShardRouter, group: int,
               schedule: Sequence[Tuple[int, object]], arrivals: object,
               exact: object, progress: Optional[ProgressFn],
               progress_every: int) -> _GroupResult:
    """Simulate one replica group and package its merge streams."""
    indices = router.group_indices(config.size, group)
    nodes = config.build_subset(indices, exact=exact)
    names = {node.name for node in nodes}
    group_schedule = [(index, event) for index, event in schedule
                      if event.node in names]
    positions: deque = deque()
    merge_log = ShardMergeLog((index for index, _ in group_schedule),
                              positions)
    simulator = ClusterSimulator(nodes, router.locals[group],
                                 events=[event for _, event
                                         in group_schedule],
                                 exact=exact)
    report = simulator.run(
        _group_stream(arrivals, group, router.num_groups, positions),
        progress=progress, progress_every=progress_every,
        merge_log=merge_log)
    return _GroupResult(
        group=group,
        indices=list(indices),
        node_stats=report.node_stats,
        completed_per_node=[node.completed for node in nodes],
        dispatches=merge_log.dispatches,
        admission_stamps=[node.admission_stamps for node in nodes],
        events=merge_log.events,
        generated_tokens=report.generated_tokens,
        wasted_tokens=report.wasted_tokens,
        requeued=report.requeued_requests,
        arrived=len(report.completed),
        counters=report.router_counters,
    )


def _worker_main(worker: int, groups: Sequence[int], config: ClusterConfig,
                 router: ShardRouter, schedule: Sequence[Tuple[int, object]],
                 arrivals_by_group: Dict[int, object], exact: object,
                 progress_every: int, wants_progress: bool,
                 warm_kv_horizon: Optional[int],
                 queue: "multiprocessing.Queue") -> None:
    """Worker entry point: warm caches, run each owned group, report.

    *warm_kv_horizon* is None when the parent pre-warmed its caches
    before forking — the child inherits the hot memo tables as
    copy-on-write pages, so warming again would only duplicate the
    build work in every worker. Spawned workers (no inherited state)
    warm themselves out to the given horizon.
    """
    try:
        # Re-freeze covers the spawn path (fresh interpreter) and any
        # objects the parent allocated between its freeze and this
        # worker's fork (earlier workers' Process machinery).
        gc.freeze()
        if warm_kv_horizon is not None:
            warm_caches(config, kv_horizon=warm_kv_horizon)
        for group in groups:
            if wants_progress:
                def forward(events: int, time_s: float, completed: int,
                            _group: int = group) -> None:
                    queue.put(("progress", _group, events, time_s,
                               completed))
            else:
                forward = None
            result = _run_group(config, router, group, schedule,
                                arrivals_by_group[group], exact,
                                forward, progress_every)
            queue.put(("result", _pack_result(result)))
    except BaseException:
        queue.put(("error", worker, traceback.format_exc()))


def _merged_timeline(results: Sequence[_GroupResult]
                     ) -> List[Tuple[float, int]]:
    """Reconstruct the fleet queue-depth timeline from the group logs.

    Replays every dispatch in global key order, keeping the fleet's
    routed count as the sum of each group's latest, and hands that
    stream with every replica's admission stamps to the single-process
    loop's own rebuild.
    """
    dispatches = heapq.merge(*[
        [(key, result.group, routed) for key, routed in result.dispatches]
        for result in results])
    latest = {result.group: 0 for result in results}

    def fleet_routed():
        total = 0
        for key, group, routed in dispatches:
            total += routed - latest[group]
            latest[group] = routed
            yield key[0], total

    return queue_depth_timeline(
        fleet_routed(),
        [stamps for result in results
         for stamps in result.admission_stamps])


def _merge_reports(results: List[_GroupResult], router_name: str,
                   fleet_size: int) -> ClusterReport:
    """Combine per-group results into the global ClusterReport."""
    by_index: Dict[int, Tuple[NodeStats, List[CompletedRequest]]] = {}
    for result in results:
        for index, stats, completed in zip(result.indices,
                                           result.node_stats,
                                           result.completed_per_node):
            by_index[index] = (stats, completed)
    ordered = [by_index[index] for index in range(fleet_size)]

    completed = [record for _, node_completed in ordered
                 for record in node_completed]
    completed.sort(key=lambda r: r.finish_s)
    arrived = sum(result.arrived for result in results)
    if not completed:
        raise ValueError("no arrivals to serve")
    if len(completed) != arrived:
        raise RuntimeError(f"cluster lost requests: {arrived} arrived, "
                           f"{len(completed)} completed")
    makespan = max(record.finish_s for record in completed)

    node_stats = [dataclasses.replace(stats,
                                      utilization=stats.busy_s / makespan)
                  for stats, _ in ordered]
    events = [event for _, event in heapq.merge(
        *[result.events for result in results],
        key=lambda pair: pair[0])]
    counters: Dict[str, int] = {}
    for result in results:
        for counter_key, value in result.counters.items():
            counters[counter_key] = counters.get(counter_key, 0) + value
    return ClusterReport(
        router=router_name,
        completed=completed,
        node_stats=node_stats,
        makespan_s=makespan,
        generated_tokens=sum(r.generated_tokens for r in results),
        wasted_tokens=sum(r.wasted_tokens for r in results),
        requeued_requests=sum(r.requeued for r in results),
        queue_depth_timeline=_merged_timeline(results),
        cluster_events=events,
        router_counters=counters,
    )


def _partition_arrivals(arrivals: object, router: ShardRouter
                        ) -> Dict[int, object]:
    """Per-group arrival payloads for the workers.

    A sequence is sorted (stable, by arrival time — the single-process
    loop's rule), enumerated for global stream positions, and doored;
    a splittable stream spec is handed to every group verbatim (each
    worker regenerates only its own slice).
    """
    if hasattr(arrivals, "shard"):
        return {group: arrivals for group in range(router.num_groups)}
    if not isinstance(arrivals, Sequence):
        raise TypeError(
            "run_sharded needs arrivals it can partition determinis"
            "tically: a sequence, or a splittable stream spec with a "
            ".shard(group, num_groups) method (e.g. ShardableStream); "
            f"got {type(arrivals).__name__}. Materialize one-shot "
            "iterators into a list first.")
    ordered = sorted(arrivals, key=lambda r: r.arrival_s)
    per_group: Dict[int, List[Tuple[int, ArrivingRequest]]] = {
        group: [] for group in range(router.num_groups)}
    for position, request in enumerate(ordered):
        per_group[router.door(request)].append((position, request))
    return per_group


def run_sharded(config: ClusterConfig, router: ShardRouter,
                arrivals: object, workers: int = 1,
                events: Sequence[object] = (), exact: object = False,
                progress: Optional[ProgressFn] = None,
                progress_every: int = 4096) -> ClusterReport:
    """Simulate *config*'s fleet over *arrivals*, sharded by group.

    ``workers=1`` is the current single-process path — one
    :class:`~repro.cluster.simulator.ClusterSimulator` over the whole
    fleet, with *router* routing globally. ``workers>1`` runs each
    replica group's independent simulation in a worker process and
    merges the results; the merged report is bit-identical (integer
    counters, event stamps, queue-depth timeline) to ``workers=1`` —
    the only permitted daylight is the ≤1e-9-relative float noise the
    fast/exact parity contract already allows, and in practice the
    per-group runs execute the very same float operations.

    Args:
        config: The fleet (pickled to workers spec-by-spec).
        router: A :class:`~repro.cluster.router.ShardRouter`; its group
            count fixes the sharding. (Autoscaling is rejected by
            construction — the router requires a static fleet.)
        arrivals: A sequence, or a splittable stream spec with
            ``shard(group, num_groups)`` (see
            :class:`repro.workloads.streams.ShardableStream`).
        workers: Worker process count; capped at the group count.
        events: :class:`~repro.cluster.simulator.NodeFailure` /
            :class:`~repro.cluster.simulator.NodeDrain` schedule.
        exact: Forwarded to every replica (``False`` / ``True`` /
            ``"step"`` / ``"vectorized"``).
        progress: Optional callback, fired with fleet-wide aggregates
            ``(events dispatched, merge-frontier time, completed)`` as
            shard progress reports arrive.
        progress_every: Per-group dispatch cadence of those reports.

    For the duration of the call the pre-existing heap is moved to the
    cyclic GC's permanent generation (``gc.freeze``/``gc.unfreeze``),
    so collections scan only run-allocated objects — and, under fork,
    never dirty the workers' copy-on-write pages.
    """
    if not isinstance(router, ShardRouter):
        raise TypeError("run_sharded requires a ShardRouter (stateless "
                        f"door + per-group locals), got {type(router)}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if config.size < router.num_groups:
        raise ValueError(f"fleet of {config.size} cannot fill "
                         f"{router.num_groups} shard groups")
    names = set(config.replica_names())
    for event in events:
        if event.node not in names:
            raise KeyError(f"no replica named {event.node!r} in the fleet")

    if workers == 1:
        fleet = config.build_fleet(exact=exact)
        stream = arrivals.full() if hasattr(arrivals, "full") else arrivals
        simulator = ClusterSimulator(fleet, router, events=list(events),
                                     exact=exact)
        # Million-record runs drown in cyclic-GC drag otherwise: every
        # full collection re-traverses the (huge, immortal-for-the-run)
        # arrival list and fleet. Freeze the pre-existing heap so
        # collections during the run only scan what the run allocates.
        gc.freeze()
        try:
            return simulator.run(stream, progress=progress,
                                 progress_every=progress_every)
        finally:
            gc.unfreeze()

    schedule = list(enumerate(sorted(events, key=lambda e: e.time_s)))
    arrivals_by_group = _partition_arrivals(arrivals, router)
    num_groups = router.num_groups
    workers = min(workers, num_groups)
    owned = {worker: [group for group in range(num_groups)
                      if group % workers == worker]
             for worker in range(workers)}

    forked = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if forked else None)
    horizon = _warmup_horizon(arrivals_by_group)
    if forked:
        # Fork-inherited memo tables are copy-on-write: one warmup here
        # serves every worker; each spawned worker warms itself instead.
        # Warming to the workload's full KV horizon matters: a curve
        # segment left cold would be rebuilt once per worker.
        warm_caches(config, kv_horizon=horizon)
    queue: multiprocessing.Queue = context.Queue()
    # Freeze the pre-existing heap (arrival partitions, warm memo
    # tables) before forking — the documented prefork idiom: a child's
    # cyclic-GC pass writes to the GC header of every inherited tracked
    # object, which would copy-on-write-duplicate the parent heap into
    # each worker and make collections scan millions of objects the
    # workers never free. Frozen state is inherited, so child
    # collections only ever scan what the child itself allocates. The
    # parent stays frozen through unpack/merge (those allocate millions
    # of young objects; collections during them should not re-traverse
    # the arrival partitions either) and unfreezes on the way out.
    gc.freeze()
    try:
        processes = []
        for worker, groups in owned.items():
            process = context.Process(
                target=_worker_main,
                args=(worker, groups, config, router, schedule,
                      {group: arrivals_by_group[group] for group in groups},
                      exact, progress_every, progress is not None,
                      None if forked else horizon, queue),
                daemon=True)
            process.start()
            processes.append(process)

        payloads: List[tuple] = []
        shard_state: Dict[int, Tuple[int, float, int]] = {}
        try:
            while len(payloads) < num_groups:
                message = queue.get()
                if message[0] == "result":
                    payload = message[1]
                    payloads.append(payload)
                    # Aggregates straight off the packed columns —
                    # result payloads are NOT unpacked here. Rebuilding
                    # a group's object graph costs seconds per million
                    # records, and doing it while sibling workers still
                    # compete for the CPU would stall them (and dirty
                    # shared copy-on-write pages); it waits until every
                    # worker has exited. Dispatches arrive in key
                    # order, so the last timestamp is the group's merge
                    # frontier.
                    times = payload[4][0]
                    shard_state[payload[0]] = (
                        int(times.shape[0]),
                        float(times[-1]) if times.shape[0] else 0.0,
                        payload[10])
                elif message[0] == "progress":
                    _, group, dispatched, time_s, completed = message
                    shard_state[group] = (dispatched, time_s, completed)
                    if progress is not None:
                        progress(sum(s[0] for s in shard_state.values()),
                                 min(s[1] for s in shard_state.values()),
                                 sum(s[2] for s in shard_state.values()))
                else:
                    _, worker, trace = message
                    raise RuntimeError(
                        f"shard worker {worker} failed:\n{trace}")
        finally:
            for process in processes:
                if process.is_alive() and len(payloads) < num_groups:
                    process.terminate()
            for process in processes:
                process.join()

        results = [_unpack_result(payload) for payload in payloads]
        report = _merge_reports(results, router.name, config.size)
    finally:
        gc.unfreeze()
    if progress is not None:
        progress(sum(len(r.dispatches) for r in results),
                 report.makespan_s, len(report.completed))
    return report
