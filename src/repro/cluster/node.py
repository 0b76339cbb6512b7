"""Iteration-steppable serving replica.

:class:`ReplicaNode` is the continuous-batching loop of
:meth:`repro.serving.scheduler.BatchingSimulator.run_continuous`
refactored into an event-steppable object: instead of consuming a whole
arrival trace in one call, the node exposes

* :meth:`submit` — route one request to the node's local queue,
* :meth:`next_event_time` — when the node's next scheduler iteration
  would start (``None`` while idle),
* :meth:`advance` — execute exactly one scheduler iteration
  (admissions, retirements, one fused decode step), and
* :meth:`advance_to` — run every iteration starting strictly before a
  horizon, *fast-forwarding* stretches where the batch cannot change.

which is what a multi-replica event loop needs to interleave
heterogeneous nodes (:class:`repro.cluster.simulator.ClusterSimulator`).
``run_continuous`` itself drives a single node with the same
``advance_to``-at-each-arrival sequence the cluster loop uses, so the
single-node policy and a one-replica cluster produce bit-identical
per-request timings by construction.

One iteration is atomic: its admission prefills and decode step are
priced as a block and the node clock jumps to the block's end. A request
routed *into* the middle of an in-flight iteration is considered at the
next iteration boundary.

**Event-horizon fast-forward.** Between two external events (the next
arrival's readiness and the caller's horizon), a batch that admits
nothing and retires nothing is a pure decode run whose mean KV length
advances by exactly +1 per iteration — so the whole run prices in closed
form off the shared prefix-sum step-cost curves
(:class:`repro.engine.stepcost.DecodeCostTable`), emitting one coalesced
trace span per track instead of one per iteration. ``exact=True``
restores per-iteration stepping with unmemoized pricing; the two agree
on every report field to ≤1e-9 relative (pinned by the parity suite).

**Exact-mode flavors.** ``exact`` accepts three truthy spellings:
``True`` and ``"step"`` are the classic reference loop — every
iteration stepped and priced individually, no memo tables anywhere.
``"vectorized"`` keeps the reference property (prefills and
batch-boundary iterations still price scalar and unmemoized, nothing is
read from the shared :class:`~repro.engine.stepcost.DecodeCostTable`
registry) but prices each pure-decode stretch in one fresh
piecewise-affine series call
(:meth:`~repro.engine.executor.OperatorExecutor.time_decode_series`)
and finds the horizon cutoff with a numpy prefix-sum search — closing
most of the ~50x step-exact vs fast gap while remaining an independent
cross-check of the memoized fast path.
"""

import bisect
import dataclasses
from array import array
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.admission import AdmissionScheduler
from repro.engine.backend import ExecutionBackend
from repro.engine.inference import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.serving.arrivals import ArrivingRequest
from repro.serving.scheduler import BatchingSimulator, CompletedRequest, _Running
from repro.trace.spans import replica_track, request_track
from repro.trace.tracer import NOOP_TRACER, Tracer


@dataclasses.dataclass(frozen=True)
class _QueuedRequest:
    """A routed request waiting for admission.

    ``ready_s`` is when the node may admit it: the arrival time for a
    normally routed request, or the requeue time for a request rescued
    from a failed node (its ``request.arrival_s`` stays original so TTFT
    keeps charging the lost time).
    """

    ready_s: float
    request: ArrivingRequest


class ReplicaNode:
    """One continuous-batching serving replica with a steppable clock.

    Args:
        name: Replica identifier within the fleet ("spr-0", "h100-0").
        platform: Device the replica runs on.
        model: Served model.
        max_batch: Maximum concurrent sequences.
        config: Engine configuration for CPU platforms.
        backend: Execution backend for this replica (quantized / TP /
            ...); ``None`` is plain BF16. Replicas in one fleet may use
            different backends — each prices through its own
            backend-keyed cost table, so fast-forward coalescing stays
            exact per replica.
        simulator: Pre-built cost model; built from the other arguments
            when omitted (the single-node runner passes its own).
        tracer: Span sink for this node's request/replica timeline; the
            default no-op discards everything (the cluster simulator
            re-points this at its own tracer when it adopts a node).
        exact: ``False`` (default) prices off the shared step-cost
            table and coalesces pure-decode runs. ``True`` / ``"step"``
            price every iteration individually with unmemoized cost
            primitives (the reference step loop). ``"vectorized"`` is
            the fast reference: same unmemoized scalar pricing at batch
            boundaries, but pure-decode stretches priced per-stretch
            with one closed-form series call instead of stepped.
        collect_gaps: Record per-iteration inter-token gaps (coalesced
            runs are expanded back into individual gaps). Off by default
            — a million-request fleet run should not grow an unused list.
        admission: Queue-ordering policy
            (:class:`~repro.cluster.admission.AdmissionScheduler`);
            ``None`` keeps the built-in FCFS loop untouched. Must be a
            fresh per-node instance (schedulers carry per-tenant service
            counters) and work-conserving — fast-forward coalescing
            assumes a ready request plus a free slot always admits.
        price_usd: Listing-price override for cost-aware routing and
            fleet $/Mtok accounting; ``None`` looks the platform up in
            :data:`repro.analysis.cost.LIST_PRICE_USD` (median fallback
            with a one-time warning for unknown devices).
    """

    def __init__(self, name: str, platform: Optional[Platform] = None,
                 model: Optional[ModelConfig] = None, max_batch: int = 8,
                 config: EngineConfig = DEFAULT_ENGINE_CONFIG,
                 backend: Optional[ExecutionBackend] = None,
                 simulator: Optional[BatchingSimulator] = None,
                 tracer: Tracer = NOOP_TRACER,
                 exact: Union[bool, str] = False,
                 collect_gaps: bool = False,
                 admission: Optional[AdmissionScheduler] = None,
                 price_usd: Optional[float] = None):
        if simulator is None:
            if platform is None or model is None:
                raise ValueError("ReplicaNode needs platform+model or a "
                                 "pre-built BatchingSimulator")
            simulator = BatchingSimulator(platform, model, max_batch, config,
                                          backend)
        self.name = name
        self.tracer = tracer
        self.exact = exact
        self.collect_gaps = collect_gaps
        self.admission = admission
        self.price_usd = price_usd
        self._track = replica_track(name)
        self._sim = simulator
        self._cost = simulator.cost_table
        self.clock = 0.0
        self.pending: List[_QueuedRequest] = []
        self.running: List[_Running] = []
        self.completed: List[CompletedRequest] = []
        self.decode_gaps: List[float] = []
        self.generated_tokens = 0
        self.busy_s = 0.0
        self.iterations = 0
        self.peak_queue = 0
        self.draining = False
        self.active = True
        # Vectorized exact mode's estimate of one decode step's cost
        # near the node's current kv frontier — sizes how much of a
        # stretch to price, never what the priced steps cost.
        self._step_cost_hint: Optional[float] = None
        #: Start of the iteration that admitted each request, in time
        #: order (an iteration admitting k requests repeats its start k
        #: times). Admissions are atomic per iteration, so per-request
        #: start stamps cannot say when the queue actually shrank; these
        #: can, and the cluster loop rebuilds its queue-depth timeline
        #: from them after the run.
        self.admission_stamps = array("d")

    # -- identification -------------------------------------------------------

    @property
    def platform(self) -> Platform:
        """Device this replica models."""
        return self._sim.platform

    @property
    def model(self) -> ModelConfig:
        """Model this replica serves."""
        return self._sim.model

    @property
    def max_batch(self) -> int:
        """Maximum concurrent sequences."""
        return self._sim.max_batch

    @property
    def backend_label(self) -> str:
        """Execution-backend label ("bf16" for the plain default)."""
        backend = getattr(self._sim, "backend", None)
        return backend.label if backend is not None else "bf16"

    @property
    def tier(self) -> Tuple[str, str, str]:
        """The (model, platform, backend) triple this replica serves.

        Two replicas with equal tiers are interchangeable to the tiered
        router: same cost table, same capability, same price class.
        """
        return (self.model.name, self.platform.name, self.backend_label)

    @property
    def cost_table(self):
        """The shared :class:`~repro.engine.stepcost.DecodeCostTable`.

        Exposed for steady-state analyses (the fluid solver) that price
        off the same memoized primitives the node executes with.
        """
        return self._cost

    @property
    def scheduler_name(self) -> str:
        """Admission policy spelling ("fcfs" for the built-in loop)."""
        return self.admission.name if self.admission is not None else "fcfs"

    # -- routing-facing state -------------------------------------------------

    @property
    def has_work(self) -> bool:
        """Whether any queued or running request remains."""
        return bool(self.pending or self.running)

    @property
    def queue_len(self) -> int:
        """Requests routed here but not yet admitted."""
        return len(self.pending)

    @property
    def outstanding_tokens(self) -> int:
        """Prompt + remaining output tokens across queued and running."""
        queued = sum(q.request.input_len + q.request.output_len
                     for q in self.pending)
        running = sum(seq.request.input_len
                      + (seq.request.output_len - seq.generated)
                      for seq in self.running)
        return queued + running

    def prefill_cost_s(self, input_len: int) -> float:
        """This replica's single-sequence prefill time for a prompt.

        Always priced off the shared step-cost table (bit-identical to
        the direct primitive, memoized) so routing decisions stay the
        same in exact and fast modes.
        """
        return self._cost.prefill_time(1, input_len)

    def decode_cost_s(self, input_len: int, output_len: int) -> float:
        """Single-sequence decode-phase estimate (mid-KV iteration cost)."""
        steps = max(0, output_len - 1)
        if steps == 0:
            return 0.0
        mid_kv = input_len + output_len // 2
        return steps * self._cost.step_time(1, mid_kv)

    def backlog_s(self, now: float) -> float:
        """Projected work ahead of a request routed at *now*.

        The in-flight iteration's remainder, plus every queued prompt's
        prefill, plus the running set's remaining decode iterations at
        the current batch geometry. An estimate (the true schedule
        depends on future admissions), but deterministic and computed
        with the same cost primitives the node executes with.
        """
        backlog = max(0.0, self.clock - now)
        backlog += sum(self.prefill_cost_s(q.request.input_len)
                       for q in self.pending)
        if self.running:
            remaining = max(seq.request.output_len - seq.generated
                            for seq in self.running)
            mean_kv = int(sum(seq.kv_len for seq in self.running)
                          / len(self.running))
            backlog += remaining * self._cost.step_time(
                len(self.running), max(1, mean_kv))
        return backlog

    # -- cost primitives (exact vs memoized) ----------------------------------

    def _prefill_cost(self, input_len: int) -> float:
        if self.exact:
            return self._sim._prefill_time(1, input_len)
        return self._cost.prefill_time(1, input_len)

    def _prefill_legs(self, input_len: int):
        if self.exact:
            return self._sim._prefill_split(1, input_len)
        return self._cost.prefill_split(1, input_len)

    def _iteration_cost(self, batch: int, mean_kv: int) -> float:
        if self.exact:
            return self._sim._decode_iteration_time(batch, mean_kv)
        return self._cost.step_time(batch, mean_kv)

    def _iteration_legs(self, batch: int, mean_kv: int):
        if self.exact:
            return self._sim._decode_split(batch, mean_kv)
        return self._cost.step_split(batch, mean_kv)

    # -- event-loop interface -------------------------------------------------

    def submit(self, request: ArrivingRequest,
               ready_s: Optional[float] = None) -> None:
        """Queue *request*; admissible from ``ready_s`` (default arrival)."""
        if ready_s is None:
            ready_s = request.arrival_s
        entry = _QueuedRequest(ready_s=max(ready_s, request.arrival_s),
                               request=request)
        # Keep the queue ordered by readiness; stable for equal stamps.
        keys = [q.ready_s for q in self.pending]
        self.pending.insert(bisect.bisect_right(keys, entry.ready_s), entry)
        self.peak_queue = max(self.peak_queue, len(self.pending))
        if self.admission is not None:
            self.admission.on_arrival(request, entry.ready_s)

    def next_event_time(self) -> Optional[float]:
        """Start time of the next scheduler iteration; None while idle."""
        if self.running:
            return self.clock
        if self.pending:
            return max(self.clock, self.pending[0].ready_s)
        return None

    def _pop_admission(self) -> Optional[_QueuedRequest]:
        """Remove and return the next request to admit, or ``None``.

        Only called when the head of the (readiness-sorted) queue is
        ready and a slot is free, so the built-in FCFS path is exactly
        the legacy ``pending.pop(0)``. With a scheduler attached, the
        scheduler chooses among the ready prefix; ``None`` from a
        (contract-violating, non-work-conserving) scheduler falls back
        to admitting nothing this iteration.
        """
        if self.admission is None:
            return self.pending.pop(0)
        index = self.admission.pick(self.pending, self.clock)
        if index is None:
            return None
        return self.pending.pop(index)

    def advance(self, now: Optional[float] = None) -> List[CompletedRequest]:
        """Run one scheduler iteration; return requests completed by it.

        The iteration replays ``run_continuous``'s loop body exactly:
        admit every ready request up to capacity (each paying its prefill
        serially, stalling already-running sequences), retire finished
        sequences, then run one fused decode step for the running set.
        *now* is advisory (the cluster loop's current time); the
        iteration actually starts at :meth:`next_event_time`.
        """
        start = self.next_event_time()
        if start is None:
            return []
        self.clock = start
        tracer = self.tracer
        stall = 0.0
        while (self.pending and len(self.running) < self.max_batch
               and self.pending[0].ready_s <= self.clock):
            queued = self._pop_admission()
            if queued is None:
                break
            self.admission_stamps.append(start)
            request = queued.request
            start_s = self.clock
            if self.admission is not None:
                self.admission.on_admit(request, start_s)
            prefill = self._prefill_cost(request.input_len)
            self.clock += prefill
            self.busy_s += prefill
            if self.running:
                stall += prefill
            self.running.append(_Running(request=request, start_s=start_s,
                                         first_token_s=self.clock,
                                         generated=1,
                                         last_event_s=self.clock))
            if tracer.enabled:
                # queue_wait starts at ready_s (== arrival for normal
                # routes, the requeue stamp for failure-rescued work) so
                # a requeued request's spans stay non-overlapping.
                track = request_track(request.request_id)
                tracer.span(track, "queue_wait", queued.ready_s, start_s,
                            category="request", args={"replica": self.name})
                compute_s, memory_s = self._prefill_legs(request.input_len)
                tracer.span(track, "prefill", start_s, self.clock,
                            category="request",
                            args={"replica": self.name,
                                  "input_len": request.input_len,
                                  "compute_s": compute_s,
                                  "memory_s": memory_s})
                tracer.span(self._track, "prefill", start_s, self.clock,
                            category="replica",
                            args={"request_id": request.request_id,
                                  "input_len": request.input_len,
                                  "batch_size": len(self.running),
                                  "compute_s": compute_s,
                                  "memory_s": memory_s})
        completed_now: List[CompletedRequest] = []
        # Most iterations retire nobody; scan before paying _retire's
        # list rebuild.
        retired: Sequence[_Running] = ()
        for seq in self.running:
            if seq.done:
                self.running, retired = BatchingSimulator._retire(
                    self.running, self.clock)
                break
        for seq in retired:
            record = BatchingSimulator._complete(seq, self.clock)
            self.completed.append(record)
            completed_now.append(record)
            self.generated_tokens += seq.request.output_len
            if self.admission is not None:
                self.admission.on_finish(seq.request)
            if tracer.enabled:
                track = request_track(seq.request.request_id)
                if self.clock > seq.last_event_s:
                    # Retirement happens at the next iteration boundary;
                    # admission prefills in that iteration delay it.
                    tracer.span(track, "finalize", seq.last_event_s,
                                self.clock, category="request",
                                args={"replica": self.name})
                tracer.span(track, "request", record.arrival_s,
                            record.finish_s, category="request",
                            args={"replica": self.name,
                                  "input_len": seq.request.input_len,
                                  "output_len": seq.request.output_len})
        if self.running:
            total_kv = 0
            for seq in self.running:
                total_kv += seq.request.input_len + seq.generated
            mean_kv = int(total_kv / len(self.running))
            iteration = self._iteration_cost(len(self.running), mean_kv)
            decode_start = self.clock
            self.clock += iteration
            self.busy_s += iteration
            if self.collect_gaps:
                self.decode_gaps.append(stall + iteration)
            if tracer.enabled:
                compute_s, memory_s = self._iteration_legs(
                    len(self.running), mean_kv)
                tracer.span(self._track, "decode", decode_start, self.clock,
                            category="replica",
                            args={"batch_size": len(self.running),
                                  "mean_kv": mean_kv,
                                  "compute_s": compute_s,
                                  "memory_s": memory_s})
                tracer.counter(self._track, "batch_size", decode_start,
                               len(self.running))
            for seq in self.running:
                seq.generated += 1
                if tracer.enabled:
                    # The token span starts at this sequence's previous
                    # token (covering any admission-prefill stall), so a
                    # request's decode spans tile first-token→last-token.
                    tracer.span(request_track(seq.request.request_id),
                                f"decode[{seq.generated - 1}]",
                                seq.last_event_s, self.clock,
                                category="request",
                                args={"replica": self.name,
                                      "kv_len": seq.kv_len,
                                      "batch_size": len(self.running)})
                seq.last_event_s = self.clock
        self.iterations += 1
        return completed_now

    def advance_to(self, horizon: Optional[float] = None
                   ) -> List[CompletedRequest]:
        """Run every iteration starting strictly before *horizon*.

        ``None`` runs the node to completion. Iterations starting at or
        after the horizon are left for the caller's next call — the same
        strict ordering the cluster loop's admin-before-iteration
        tie-break gives per-iteration stepping.

        In the default (fast) mode, stretches where the batch provably
        cannot change — nothing admissible before the horizon, nobody
        finishing — are priced in one closed-form range lookup
        (:meth:`_fast_forward`) instead of stepped; with
        ``exact="vectorized"`` the same stretches are priced by a fresh
        per-stretch series call (no shared memo tables); with
        ``exact=True`` / ``"step"`` every iteration is stepped and
        priced individually.
        """
        completed: List[CompletedRequest] = []
        vectorized = self.exact == "vectorized"
        while True:
            start = self.next_event_time()
            if start is None or (horizon is not None and start >= horizon):
                return completed
            if vectorized:
                window = self._vectorized_steps(start, horizon)
                if window is not None:
                    self._fast_forward(*window)
                    continue
            elif not self.exact:
                steps, mean_kv = self._coalescible_steps(start, horizon)
                if steps >= 2:
                    batch = len(self.running)
                    if self.collect_gaps or self.tracer.enabled:
                        step_times = self._cost.step_times(batch, mean_kv,
                                                           mean_kv + steps)
                        split = lambda: self._cost.range_cost(
                            batch, mean_kv, mean_kv + steps)[1:]
                        self._fast_forward(steps, mean_kv, step_times, split)
                    else:
                        self._fast_forward_fused(batch, steps, mean_kv)
                    continue
            completed.extend(self.advance())

    def _coalescible_window(self, start: float, horizon: Optional[float]
                            ) -> Tuple[int, int, Optional[float]]:
        """(step limit, batch mean KV, time budget) of a pure-decode run.

        The limit is zero unless the running set is non-empty, nobody
        retires within the window (bounded by the closest sequence to
        finishing), and no admission can happen at or before the
        window's iterations begin. The budget is the time available
        against the earlier of *horizon* and the head-of-queue
        readiness (``None`` = unbounded); converting it to a step count
        is mode-specific — a prefix-curve binary search in fast mode, a
        numpy prefix-sum search in vectorized exact mode.
        """
        running = self.running
        if not running:
            return 0, 0, None
        limit = None
        total_kv = 0
        for seq in running:
            request = seq.request
            remaining = request.output_len - seq.generated
            if limit is None or remaining < limit:
                limit = remaining
            total_kv += request.input_len + seq.generated
        if limit < 2:
            return 0, 0, None
        batch = len(running)
        mean_kv = total_kv // batch
        if mean_kv < 1:
            mean_kv = 1
        bound = horizon
        if self.pending and batch < self.max_batch:
            ready = self.pending[0].ready_s
            if ready <= start:
                return 0, 0, None  # admissible right now: step normally
            if bound is None or ready < bound:
                bound = ready
        if bound is None:
            return limit, mean_kv, None
        return limit, mean_kv, bound - start

    def _coalescible_steps(self, start: float,
                           horizon: Optional[float]) -> Tuple[int, int]:
        """(pure-decode iterations runnable from *start*, batch mean KV).

        Fast-mode step counting: the window's time budget resolves to a
        step count with one binary search over the shared prefix-sum
        cost curve, using the invariant that a pure-decode run's mean KV
        length advances by exactly +1 per iteration (integer floor of a
        sum that grows by the batch size each step).
        """
        limit, mean_kv, budget = self._coalescible_window(start, horizon)
        if limit == 0:
            return 0, 0
        if budget is None:
            return limit, mean_kv
        return self._cost.steps_within(len(self.running), mean_kv,
                                       budget, limit), mean_kv

    def _vectorized_steps(self, start: float, horizon: Optional[float]):
        """Vectorized exact mode's coalescing window, or ``None`` to step.

        Prices the whole candidate stretch with one fresh
        ``time_decode_series`` call — the same closed-form
        piecewise-affine analysis the fast path's tables are built from,
        but per-stretch and unmemoized, so this mode never reads the
        shared table registry. The horizon cutoff is the count of
        iterations whose start offset (numpy prefix sum of the per-step
        times, the same left-to-right additions the step loop performs)
        lands strictly inside the budget — mirroring
        ``DecodeCostTable.steps_within``'s strict-start rule.
        """
        limit, mean_kv, budget = self._coalescible_window(start, horizon)
        if limit < 2:
            return None
        batch = len(self.running)
        if budget is None:
            priced = limit
        else:
            # Price only what the budget can plausibly consume,
            # estimating the step count from the last stretch's step
            # cost (a probe pricing when there is none yet). The
            # estimate only affects how much gets priced: a shortfall
            # re-prices a doubled range — always as one fresh series
            # from mean_kv, so the step values used are a consistent
            # single pricing.
            hint = self._step_cost_hint
            if hint is None:
                hint = self._sim._decode_series(batch, mean_kv,
                                                mean_kv + 1)[0][0]
            priced = min(limit, int(budget / hint) + 2)
        while True:
            times, compute, memory = self._sim._decode_series(
                batch, mean_kv, mean_kv + priced)
            if budget is None:
                steps = priced
                break
            starts = np.empty(priced)
            starts[0] = 0.0
            np.cumsum(times[:priced - 1], out=starts[1:])
            steps = int(np.searchsorted(starts, budget, side="left"))
            if steps < priced or priced == limit:
                break
            priced = min(limit, priced * 2)
        self._step_cost_hint = times[steps - 1]
        if steps < 2:
            return None
        split = lambda: (sum(compute[:steps]), sum(memory[:steps]))
        return steps, mean_kv, times[:steps], split

    def _fast_forward_fused(self, batch: int, steps: int,
                            mean_kv: int) -> None:
        """:meth:`_fast_forward` specialized for the no-observer case.

        With no gap collection and no tracer attached, nothing ever
        reads the per-step time list — so this path differences the
        shared prefix curve in place instead of materializing it. The
        step values and their addition order are identical to the list
        path (``prefix[kv] - prefix[kv - 1]``, accumulated
        left-to-right), keeping the clock bit-equal between the two.
        """
        prefix = self._cost.prefix_times(batch, mean_kv + steps)
        clock = self.clock
        busy = self.busy_s
        prev = prefix[mean_kv - 1]
        for cur in prefix[mean_kv:mean_kv + steps]:
            step_s = cur - prev
            clock += step_s
            busy += step_s
            prev = cur
        self.clock = clock
        self.busy_s = busy
        self.iterations += steps
        for seq in self.running:
            seq.generated += steps
            seq.last_event_s = clock

    def _fast_forward(self, steps: int, mean_kv: int,
                      step_times: Sequence[float],
                      split: Callable[[], Tuple[float, float]]) -> None:
        """Execute *steps* pure-decode iterations as one coalesced block.

        *step_times* is the block's per-iteration cost sequence (a
        prefix-curve slice in fast mode, a fresh series in vectorized
        exact mode) and *split* lazily supplies the block's
        (compute_s, memory_s) attribution legs — only evaluated while a
        recording tracer is attached. The clock (and busy time) advance
        by adding the step costs *one at a time*, in the same order the
        per-iteration loop would: a request's TTFT is a tiny difference
        of huge timestamps, so even the one-ulp-per-run drift of adding
        a range sum instead of the step sequence would amplify past 1e-9
        over a 100k-request trace. The float additions are two per step
        (into locals, stored once — same value sequence, same rounding)
        — the per-step work the fast path actually avoids is the
        *pricing*, which is three orders of magnitude dearer. The trace
        receives one replica ``decode`` span carrying ``steps`` and one
        request ``decode[a..b]`` span per sequence, so attribution still
        tiles each request's ``e2e_s``.
        """
        running = self.running
        batch = len(running)
        run_start = self.clock
        clock = run_start
        busy = self.busy_s
        for step_s in step_times:
            clock += step_s
            busy += step_s
        self.clock = clock
        self.busy_s = busy
        self.iterations += steps
        if self.collect_gaps:
            self.decode_gaps.extend(step_times)
        tracer = self.tracer
        if tracer.enabled:
            compute_s, memory_s = split()
            tracer.span(self._track, "decode", run_start, self.clock,
                        category="replica",
                        args={"batch_size": batch, "mean_kv": mean_kv,
                              "steps": steps, "coalesced": True,
                              "compute_s": compute_s,
                              "memory_s": memory_s})
            tracer.counter(self._track, "batch_size", run_start, batch)
        for seq in running:
            first = seq.generated
            seq.generated += steps
            if tracer.enabled:
                tracer.span(request_track(seq.request.request_id),
                            f"decode[{first}..{seq.generated - 1}]",
                            seq.last_event_s, self.clock,
                            category="request",
                            args={"replica": self.name,
                                  "kv_len": seq.kv_len,
                                  "batch_size": batch,
                                  "steps": steps})
            seq.last_event_s = self.clock

    # -- fleet lifecycle ------------------------------------------------------

    def drain(self) -> None:
        """Stop accepting new routes; in-flight work runs to completion."""
        self.draining = True

    def fail(self) -> Tuple[List[ArrivingRequest], int]:
        """Kill the node; return (requests to requeue, wasted tokens).

        Every queued and in-flight request is handed back for rerouting
        with its original arrival stamp (so TTFT keeps charging the lost
        time); tokens already generated by in-flight sequences are the
        wasted work.
        """
        self.active = False
        self.draining = True
        lost = [q.request for q in self.pending]
        lost += [seq.request for seq in self.running]
        wasted = sum(seq.generated for seq in self.running)
        self.pending.clear()
        self.running.clear()
        return lost, wasted
