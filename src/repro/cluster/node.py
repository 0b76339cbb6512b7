"""Iteration-steppable serving replica: the one scheduler loop.

:class:`ReplicaNode` is the loop behind every batching policy of
:class:`repro.serving.scheduler.BatchingSimulator` and every replica of
:class:`repro.cluster.simulator.ClusterSimulator`. Instead of consuming
a whole arrival trace in one call, the node exposes

* :meth:`submit` — route one request to the node's local queue,
* :meth:`next_event_time` — when the node's next scheduler iteration
  would start (``None`` while idle),
* :meth:`advance` — execute exactly one scheduler iteration
  (admissions, retirements, one fused decode step), and
* :meth:`advance_to` — run every iteration starting strictly before a
  horizon, *fast-forwarding* stretches where the batch cannot change.

:meth:`serve` drives one node through a whole stream with the same
``advance_to``-at-each-arrival sequence the cluster loop uses, so the
single-node policies and a one-replica cluster produce bit-identical
per-request timings by construction.

**Batching disciplines** (paper Section VII-C). ``policy`` changes
three decisions of an iteration; everything else (clock, records,
admission hooks, spans, gaps, exact mode, fast-forward) is shared.
``"continuous"`` (Orca; the fleet discipline) admits whenever a slot is
free, prefills each admission in full (stalling the running batch) and
prices the live batch at its floor mean KV. ``"static"``
(FasterTransformer) admits a cohort only into an empty node, prefills
it as one padded pass and prices each decode step at (cohort size,
longest prompt + step) until its longest request finishes.
``"chunked"`` (Sarathi) counts in-flight prompts against the slots and
prefills at most ``chunk_tokens`` of the oldest one per iteration, fused
with the decode step.

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
"""

import dataclasses
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cluster.admission import AdmissionScheduler
from repro.engine.backend import ExecutionBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.stepcost import decode_cost_table
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.serving.arrivals import (
    ArrivingRequest,
    CompletedRequest,
    ServingReport,
)
from repro.trace.spans import replica_track, request_track
from repro.trace.tracer import NOOP_TRACER, Tracer
from repro.utils.validation import require_positive


#: Batching disciplines a :class:`ReplicaNode` runs.
BATCHING_POLICIES = ("static", "continuous", "chunked")


def check_batching_policy(policy: str) -> str:
    """Return *policy* if it names a batching discipline, else raise."""
    if policy not in BATCHING_POLICIES:
        raise ValueError(f"unknown batching policy {policy!r}; expected "
                         f"one of {', '.join(BATCHING_POLICIES)}")
    return policy


@dataclasses.dataclass(slots=True)
class _Running:
    """An admitted request (``prompt_left``: chunked prefill still owed)."""

    request: ArrivingRequest
    start_s: float
    first_token_s: float
    generated: int  # tokens produced so far (prefill's counts as 1)
    last_event_s: float = 0.0  # end of this sequence's latest span (tracing)
    prompt_left: int = 0

    @property
    def kv_len(self) -> int:
        return self.request.input_len + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_len


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
    """One serving replica with a steppable clock and a batching discipline.

    Args:
        name: Replica identifier within the fleet ("spr-0", "h100-0").
        platform: Device the replica runs on.
        model: Served model.
        max_batch: Maximum concurrent sequences.
        backend: Execution backend for this replica (quantized / TP /
            ...); ``None`` is plain BF16. Replicas in one fleet may use
            different backends — each prices through its own
            backend-keyed cost table, so fast-forward coalescing stays
            exact per replica.
        tracer: Span sink for this node's request/replica timeline; the
            default no-op discards everything (the cluster simulator
            re-points this at its own tracer when it adopts a node).
        exact: ``False`` (default) prices off the shared step-cost
            table and coalesces pure-decode runs. ``True`` prices every
            iteration individually with unmemoized cost primitives (the
            reference step loop). The cluster simulator sets this too
            when it adopts a node.
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
        policy: ``"continuous"`` (default), ``"static"`` or
            ``"chunked"`` batching (see the module docstring).
        chunk_tokens: Prompt tokens a chunked node prefills per iteration.
    """

    # Every instance attribute is a declared slot: the hot loops read
    # ``self.x`` through a fixed-offset descriptor, never a dict.
    __slots__ = ("policy", "_static", "_chunked", "chunk_tokens", "_cost",
                 "max_batch", "name", "tracer", "exact", "collect_gaps",
                 "admission", "price_usd", "_track", "clock", "pending",
                 "running", "prefilling", "outstanding_tokens",
                 "_cohort_size", "_cohort_input", "completed",
                 "decode_gaps", "generated_tokens", "busy_s", "iterations",
                 "peak_queue", "draining", "active", "admission_stamps",
                 "tier", "_queued_prefill_s")

    def __init__(self, name: str, platform: Platform, model: ModelConfig,
                 max_batch: int = 8,
                 backend: Optional[ExecutionBackend] = None,
                 tracer: Tracer = NOOP_TRACER,
                 exact: bool = False,
                 collect_gaps: bool = False,
                 admission: Optional[AdmissionScheduler] = None,
                 price_usd: Optional[float] = None,
                 policy: str = "continuous", chunk_tokens: int = 256):
        if not isinstance(exact, bool):
            raise ValueError(f"exact must be a bool, got {exact!r}")
        self.policy = check_batching_policy(policy)
        self._static = policy == "static"
        self._chunked = policy == "chunked"
        if self._chunked:
            require_positive(chunk_tokens, "chunk_tokens")
        self.chunk_tokens = chunk_tokens
        executor = InferenceSimulator(platform, backend).replica_executor(
            model, max_batch)
        self._cost = cost = decode_cost_table(executor, model)
        #: The (model, platform, backend) triple this replica serves.
        #: Two replicas with equal tiers are interchangeable to the
        #: tiered router: same cost table, same capability, same price
        #: class.
        self.tier: Tuple[str, str, str] = (cost.model.name,
                                           cost.executor.platform.name,
                                           cost.executor.backend.label)
        self.max_batch = max_batch
        self.name = name
        self.tracer = tracer
        self.exact = exact
        self.collect_gaps = collect_gaps
        self.admission = admission
        self.price_usd = price_usd
        self._track = replica_track(name)
        self.clock = 0.0
        self.pending: List[_QueuedRequest] = []
        # backlog_s's queued-prefill sum; None once the queue changed.
        self._queued_prefill_s: Optional[float] = None
        self.running: List[_Running] = []
        self.prefilling: List[_Running] = []  # chunked prompts in flight
        #: Prompt + remaining output tokens across queued, prefilling (a
        #: chunked node's prompts still owed) and running sequences —
        #: the least-tokens routing key, kept as a ledger updated
        #: wherever the sum changes, so reading it is O(1).
        self.outstanding_tokens = 0
        # Static batching's padded shape: cohort size, longest prompt.
        self._cohort_size = 0
        self._cohort_input = 0
        self.completed: List[CompletedRequest] = []
        self.decode_gaps: List[float] = []
        self.generated_tokens = 0
        self.busy_s = 0.0
        self.iterations = 0
        self.peak_queue = 0
        self.draining = False
        self.active = True
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
        return self._cost.executor.platform

    @property
    def model(self) -> ModelConfig:
        """Model this replica serves."""
        return self._cost.model

    @property
    def backend_label(self) -> str:
        """Execution-backend label ("bf16" for the plain default)."""
        return self._cost.executor.backend.label

    @property
    def cost_table(self):
        """The shared :class:`~repro.engine.stepcost.DecodeCostTable`.

        The node's one pricing surface: the fast path reads its memos,
        exact mode calls its ``executor`` unmemoized. Exposed for
        steady-state analyses (the fluid solver) that price off the same
        primitives the node executes with.
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
        return bool(self.pending or self.running or self.prefilling)

    @property
    def queue_len(self) -> int:
        """Requests routed here but not yet admitted."""
        return len(self.pending)

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
        prefill, plus the chunks a chunked node still owes its in-flight
        prompts, plus the running set's remaining decode iterations at
        the current batch geometry. An estimate (the true schedule
        depends on future admissions), but deterministic and computed
        with the same cost primitives the node executes with.
        """
        backlog = max(0.0, self.clock - now)
        queued = self._queued_prefill_s
        if queued is None:
            queued = self._queued_prefill_s = sum(
                self.prefill_cost_s(q.request.input_len)
                for q in self.pending)
        backlog += queued
        for job in self.prefilling:
            chunks, tail = divmod(job.prompt_left, self.chunk_tokens)
            backlog += chunks * self._cost.prefill_time(1, self.chunk_tokens)
            if tail:
                backlog += self._cost.prefill_time(1, tail)
        if self.running:
            remaining = max(seq.request.output_len - seq.generated
                            for seq in self.running)
            mean_kv = int(sum(seq.kv_len for seq in self.running)
                          / len(self.running))
            backlog += remaining * self._cost.step_time(
                len(self.running), max(1, mean_kv))
        return backlog

    # -- cost primitives (exact vs memoized) ----------------------------------
    # Exact mode prices every pass fresh through the table's executor;
    # the fast path reads the table's memos of the same primitives.

    def _prefill_cost(self, batch: int, input_len: int) -> float:
        cost = self._cost
        if self.exact:
            return cost.executor.prefill_pass(cost.model, batch,
                                              input_len)[0]
        return cost.prefill_time(batch, input_len)

    def _prefill_legs(self, batch: int, input_len: int):
        cost = self._cost
        if self.exact:
            return cost.executor.prefill_pass(cost.model, batch,
                                              input_len)[1:]
        return cost.prefill_split(batch, input_len)

    def _iteration_cost(self, batch: int, mean_kv: int) -> float:
        cost = self._cost
        if self.exact:
            return cost.executor.decode_step(cost.model, batch, mean_kv)[0]
        # DecodeCostTable.step_time, read off the curve directly.
        kv = max(1, mean_kv)
        curve = cost.curve(batch)
        curve.ensure(kv + 1)
        return curve.step_t[kv]

    def _iteration_legs(self, batch: int, mean_kv: int):
        cost = self._cost
        if self.exact:
            return cost.executor.decode_step(cost.model, batch, mean_kv)[1:]
        return cost.step_split(batch, mean_kv)

    # -- event-loop interface -------------------------------------------------

    def submit(self, request: ArrivingRequest,
               ready_s: Optional[float] = None) -> None:
        """Queue *request*; admissible from ``ready_s`` (default arrival)."""
        if ready_s is None:
            ready_s = request.arrival_s
        entry = _QueuedRequest(ready_s=max(ready_s, request.arrival_s),
                               request=request)
        # Keep the queue ordered by readiness; stable for equal stamps.
        # Arrivals come in time order, so the entry usually goes last;
        # out-of-order stamps (failure requeues) bisect.
        pending = self.pending
        if not pending or pending[-1].ready_s <= entry.ready_s:
            pending.append(entry)
        else:
            keys = [q.ready_s for q in pending]
            pending.insert(bisect_right(keys, entry.ready_s), entry)
        self._queued_prefill_s = None
        self.peak_queue = max(self.peak_queue, len(pending))
        self.outstanding_tokens += request.input_len + request.output_len
        if self.admission is not None:
            self.admission.on_arrival(request, entry.ready_s)

    def next_event_time(self) -> Optional[float]:
        """Start time of the next scheduler iteration; None while idle."""
        if self.running or self.prefilling:
            return self.clock
        if self.pending:
            return max(self.clock, self.pending[0].ready_s)
        return None

    def serve(self, arrivals: Iterable[ArrivingRequest]) -> ServingReport:
        """Serve a whole (non-empty) arrival stream and report it.

        Advance to each arrival, submit it, drain: the cluster loop's
        call sequence, so a one-replica cluster reproduces it exactly.
        """
        queue = sorted(arrivals, key=lambda r: r.arrival_s)
        if not queue:
            raise ValueError("no arrivals to serve")
        for request in queue:
            self.advance_to(request.arrival_s)
            self.submit(request)
        self.advance_to(None)
        completed = sorted(self.completed, key=lambda r: r.finish_s)
        return ServingReport(self.policy, completed,
                             makespan_s=max(r.finish_s for r in completed),
                             generated_tokens=self.generated_tokens,
                             decode_gaps=self.decode_gaps)

    def _admit_next(self, start: float) -> Optional[ArrivingRequest]:
        """Admit a request into a free slot; the queue head is ready.

        The built-in FCFS path pops the queue head. With a scheduler
        attached, the scheduler chooses among the ready prefix; ``None``
        from a (contract-violating, non-work-conserving) scheduler falls
        back to admitting nothing this iteration.
        """
        if self.admission is None:
            queued = self.pending.pop(0)
        else:
            index = self.admission.pick(self.pending, self.clock)
            if index is None:
                return None
            queued = self.pending.pop(index)
        self._queued_prefill_s = None
        self.admission_stamps.append(start)
        request = queued.request
        if self.admission is not None:
            self.admission.on_admit(request, self.clock)
        if self.tracer.enabled:
            # queue_wait starts at ready_s (== arrival for normal
            # routes, the requeue stamp for failure-rescued work) so
            # a requeued request's spans stay non-overlapping.
            self.tracer.span(request_track(request.request_id),
                             "queue_wait", queued.ready_s, self.clock,
                             category="request", args={"replica": self.name})
        return request

    def _trace_prefill(self, request: ArrivingRequest, start_s: float,
                       legs: Tuple[float, float], **args) -> None:
        self.tracer.span(request_track(request.request_id), "prefill",
                         start_s, self.clock, category="request",
                         args={"replica": self.name,
                               "input_len": request.input_len,
                               "compute_s": legs[0], "memory_s": legs[1],
                               **args})

    def _admit_cohort(self, start: float) -> None:
        """Static admission: one padded cohort, only into an empty node."""
        if self.running:
            return
        cohort: List[ArrivingRequest] = []
        while (self.pending and self.pending[0].ready_s <= self.clock
               and len(cohort) < self.max_batch):
            request = self._admit_next(start)
            if request is None:
                break
            cohort.append(request)
        if not cohort:
            return
        self._cohort_size = batch = len(cohort)
        self._cohort_input = longest = max(r.input_len for r in cohort)
        prefill = self._prefill_cost(batch, longest)
        self.clock += prefill
        self.busy_s += prefill
        self.outstanding_tokens -= batch  # each prefill emits one token
        for request in cohort:
            self.running.append(_Running(request=request, start_s=start,
                                         first_token_s=self.clock,
                                         generated=1,
                                         last_event_s=self.clock))
        if self.tracer.enabled:
            legs = self._prefill_legs(batch, longest)
            for request in cohort:
                self._trace_prefill(request, start, legs, batch_size=batch)
            self.tracer.span(self._track, "prefill", start, self.clock,
                             category="replica",
                             args={"batch_size": batch, "input_len": longest,
                                   "compute_s": legs[0],
                                   "memory_s": legs[1]})

    def _admit_prompts(self, start: float) -> None:
        """Chunked admission: free slots count prompts still in flight."""
        while (self.pending and self.pending[0].ready_s <= self.clock
               and len(self.running) + len(self.prefilling) < self.max_batch):
            request = self._admit_next(start)
            if request is None:
                break
            self.prefilling.append(_Running(request=request,
                                            start_s=self.clock,
                                            first_token_s=self.clock,
                                            generated=0,
                                            prompt_left=request.input_len))

    def _prefill_chunk(self) -> float:
        """Price one chunk of the oldest in-flight prompt (fused with decode).

        The clock does not move here; a prompt finishing with this
        chunk yields its first token at the chunk's end.
        """
        if not self.prefilling:
            return 0.0
        job = self.prefilling[0]
        chunk = min(self.chunk_tokens, job.prompt_left)
        cost = self._prefill_cost(1, chunk)
        job.prompt_left -= chunk
        self.outstanding_tokens -= chunk
        end = self.clock + cost
        if self.tracer.enabled:
            legs = self._prefill_legs(1, chunk)
            self.tracer.span(self._track, "prefill", self.clock, end,
                             category="replica",
                             args={"request_id": job.request.request_id,
                                   "chunk_tokens": chunk,
                                   "remaining": job.prompt_left,
                                   "compute_s": legs[0],
                                   "memory_s": legs[1]})
        if job.prompt_left == 0:
            self.prefilling.pop(0)
            job.first_token_s = job.last_event_s = end
            job.generated = 1
            self.running.append(job)
            # Owed prompt + output becomes input + output - generated.
            self.outstanding_tokens += job.request.input_len - 1
            if self.tracer.enabled:
                # The request's prefill span is its admission window
                # (first chunk to first token), not busy time: the
                # chunks interleave with other sequences' decode steps.
                self.tracer.span(request_track(job.request.request_id),
                                 "prefill", job.start_s, end,
                                 category="request",
                                 args={"replica": self.name,
                                       "input_len": job.request.input_len,
                                       "chunked": True})
        return cost

    def _retire(self) -> List[CompletedRequest]:
        """Retire every finished sequence at the clock; return the records."""
        still: List[_Running] = []
        completed_now: List[CompletedRequest] = []
        tracer = self.tracer
        for seq in self.running:
            request = seq.request
            if seq.generated < request.output_len:
                still.append(seq)
                continue
            self.outstanding_tokens -= (request.input_len + request.output_len
                                        - seq.generated)
            record = CompletedRequest(request_id=request.request_id,
                                      arrival_s=request.arrival_s,
                                      start_s=seq.start_s,
                                      first_token_s=seq.first_token_s,
                                      finish_s=self.clock)
            self.completed.append(record)
            completed_now.append(record)
            self.generated_tokens += request.output_len
            if self.admission is not None:
                self.admission.on_finish(request)
            if tracer.enabled:
                track = request_track(request.request_id)
                if self.clock > seq.last_event_s:
                    # Retirement happens at the next iteration boundary;
                    # admission prefills in that iteration delay it.
                    tracer.span(track, "finalize", seq.last_event_s,
                                self.clock, category="request",
                                args={"replica": self.name})
                tracer.span(track, "request", record.arrival_s,
                            record.finish_s, category="request",
                            args={"replica": self.name,
                                  "input_len": request.input_len,
                                  "output_len": request.output_len})
        self.running = still
        return completed_now

    def advance(self) -> List[CompletedRequest]:
        """Run one scheduler iteration; return requests completed by it.

        Admit as the discipline allows, retire finished sequences, run
        one fused decode step. Retirement waits behind admission
        prefills, except on a chunked node, whose admissions take no
        time: it admits after retiring, so freed slots refill at once.
        The iteration starts at :meth:`next_event_time`.
        """
        start = self.next_event_time()
        if start is None:
            return []
        self.clock = start
        tracer = self.tracer
        stall = lead = 0.0
        if self._static:
            self._admit_cohort(start)
        elif not self._chunked:
            # Continuous: prefill each admission in full, in turn; time
            # spent while sequences were already running stalls them.
            while (self.pending and len(self.running) < self.max_batch
                   and self.pending[0].ready_s <= self.clock):
                request = self._admit_next(start)
                if request is None:
                    break
                start_s = self.clock
                prefill = self._prefill_cost(1, request.input_len)
                self.clock += prefill
                self.busy_s += prefill
                if self.running:
                    stall += prefill
                self.outstanding_tokens -= 1
                self.running.append(_Running(request=request,
                                             start_s=start_s,
                                             first_token_s=self.clock,
                                             generated=1,
                                             last_event_s=self.clock))
                if tracer.enabled:
                    legs = self._prefill_legs(1, request.input_len)
                    self._trace_prefill(request, start_s, legs)
                    tracer.span(self._track, "prefill", start_s, self.clock,
                                category="replica",
                                args={"request_id": request.request_id,
                                      "input_len": request.input_len,
                                      "batch_size": len(self.running),
                                      "compute_s": legs[0],
                                      "memory_s": legs[1]})
        for seq in self.running:
            if seq.generated >= seq.request.output_len:
                completed_now = self._retire()
                break
        else:
            completed_now = []  # most iterations retire nobody
        cohort = self.running
        if self._chunked:
            self._admit_prompts(start)
            lead = self._prefill_chunk()
            if cohort and cohort[-1].done:
                # A single-token prompt the chunk just finished (nothing
                # else is done after retirement): it emits no decode
                # token and retires at the next boundary.
                cohort = cohort[:-1]
        if cohort:
            if self._static:
                batch = self._cohort_size
                mean_kv = self._cohort_input + cohort[0].generated - 1
            else:
                batch = len(cohort)
                total_kv = 0
                for seq in cohort:
                    total_kv += seq.request.input_len + seq.generated
                mean_kv = int(total_kv / batch)
            iteration = self._iteration_cost(batch, mean_kv)
            decode_start = self.clock + lead
            fused = lead + iteration
            self.clock += fused
            self.busy_s += fused
            self.outstanding_tokens -= len(cohort)
            if self.collect_gaps:
                self.decode_gaps.append(stall + fused)
            if tracer.enabled:
                compute_s, memory_s = self._iteration_legs(batch, mean_kv)
                tracer.span(self._track, "decode", decode_start, self.clock,
                            category="replica",
                            args={"batch_size": batch,
                                  "mean_kv": mean_kv,
                                  "compute_s": compute_s,
                                  "memory_s": memory_s})
                tracer.counter(self._track, "batch_size", decode_start,
                               batch)
            clock = self.clock
            if tracer.enabled:
                for seq in cohort:
                    seq.generated += 1
                    # The token span starts at this sequence's previous
                    # token (covering any admission-prefill stall), so a
                    # request's decode spans tile first-token→last-token.
                    tracer.span(request_track(seq.request.request_id),
                                f"decode[{seq.generated - 1}]",
                                seq.last_event_s, clock, category="request",
                                args={"replica": self.name,
                                      "kv_len": seq.kv_len,
                                      "batch_size": batch})
                    seq.last_event_s = clock
            else:
                for seq in cohort:
                    seq.generated += 1
                    seq.last_event_s = clock
        else:
            self.clock += lead
            self.busy_s += lead
        self.iterations += 1
        return completed_now

    def advance_to(self, horizon: Optional[float] = None
                   ) -> List[CompletedRequest]:
        """Run every iteration starting strictly before *horizon*.

        ``None`` runs the node to completion. Iterations starting at or
        after the horizon are left for the caller's next call — the same
        strict ordering the cluster loop's admin-before-iteration
        tie-break gives per-iteration stepping.

        One loop serves every mode. Each pass reads the pure-decode
        window (:meth:`_coalescible_window`) and either coalesces it or
        runs one :meth:`advance`. In the default (fast) mode the window's
        time budget becomes a step count by one binary search over the
        shared prefix-sum curve, and the run adds the curve's per-step
        costs ``step_t[mean_kv:mean_kv + steps]`` to the clock one at a
        time. Untraced, a lone step is coalesced too, so :meth:`advance`
        runs only where an iteration admits, retires or prefills a
        chunk; a recording tracer keeps single steps on :meth:`advance`
        so the trace still carries their per-iteration spans. Every
        coalesced run goes through :meth:`_fast_forward`. With
        ``exact=True`` every iteration is stepped and priced
        individually. A run that ends at the window's step limit emits
        some sequence's last token, so the next window is empty and the
        next pass goes straight to :meth:`advance`.
        """
        if not (self.pending or self.running or self.prefilling):
            return []
        completed: List[CompletedRequest] = []
        exact = self.exact
        # Shortest run fast mode coalesces.
        shortest = 2 if self.tracer.enabled else 1
        cost = self._cost
        retiring = False  # the last run ended on some sequence's last token
        while True:
            start = self.next_event_time()
            if start is None or (horizon is not None and start >= horizon):
                return completed
            if retiring or exact:
                retiring = False
                completed.extend(self.advance())
                continue
            limit, batch, mean_kv, budget = self._coalescible_window(start,
                                                                      horizon)
            steps = limit
            if limit:
                curve = cost.curve(batch)
                curve.ensure(mean_kv + limit)
                if budget is not None:
                    # Iteration j starts after the costs of its
                    # predecessors and runs iff that start is strictly
                    # inside the budget.
                    prefix = curve.prefix_t
                    base = mean_kv - 1
                    steps = bisect_left(prefix, prefix[base] + budget, base,
                                        base + limit) - base
            if steps < shortest:
                completed.extend(self.advance())
                continue
            retiring = steps == limit
            self._fast_forward(steps, batch, mean_kv,
                               curve.step_t[mean_kv:mean_kv + steps])

    def _coalescible_window(self, start: float, horizon: Optional[float]
                            ) -> Tuple[int, int, int, Optional[float]]:
        """(step limit, priced batch, mean KV, time budget) of a pure-decode run.

        The limit is the closest running sequence's remaining tokens, so a run of ``limit`` steps ends on the iteration that
        emits its last token (retirement happens at the next boundary,
        and the window after such a run is empty). It is zero unless the
        running set is non-empty, no prompt is in flight, nobody is
        already finished, and no admission can happen at or before the
        window's iterations begin. The priced shape is the discipline's
        (a static cohort's is padded). The budget is the time available
        against the earlier of *horizon* and the head-of-queue readiness
        (``None`` = unbounded); :meth:`advance_to` converts it to a step
        count by a binary search over the shared prefix-sum curve, which
        rests on a pure-decode run's mean KV length advancing by exactly
        +1 per iteration (integer floor of a sum that grows by the batch
        size each step).
        """
        running = self.running
        if not running or self.prefilling:
            return 0, 0, 0, None
        limit = None
        total_kv = 0
        for seq in running:
            request = seq.request
            remaining = request.output_len - seq.generated
            if limit is None or remaining < limit:
                limit = remaining
            total_kv += request.input_len + seq.generated
        if limit < 1:
            return 0, 0, 0, None
        bound = horizon
        if self._static:
            # A padded cohort, which admits nothing until fully retired.
            batch = self._cohort_size
            mean_kv = self._cohort_input + running[0].generated - 1
        else:
            batch = len(running)
            mean_kv = total_kv // batch
            if mean_kv < 1:
                mean_kv = 1
            if self.pending and batch < self.max_batch:
                ready = self.pending[0].ready_s
                if ready <= start:
                    return 0, 0, 0, None  # admissible now: step normally
                if bound is None or ready < bound:
                    bound = ready
        if bound is None:
            return limit, batch, mean_kv, None
        return limit, batch, mean_kv, bound - start

    def _fast_forward(self, steps: int, batch: int, mean_kv: int,
                      costs: Sequence[float]) -> None:
        """Execute *steps* pure-decode iterations as one coalesced block.

        The one path every coalesced run takes. *costs* is the block's
        per-iteration cost sequence (a ``step_t`` curve slice). The
        block's (compute_s, memory_s) attribution legs are worked out
        only while a recording tracer is attached, read off the shared
        curve by ``range_cost``. The clock (and busy
        time) advance by adding the step costs *one at a time*, in the
        same order the per-iteration loop would: a request's TTFT is a
        tiny difference of huge timestamps, so even the one-ulp-per-run
        drift of adding a range sum instead of the step sequence would
        amplify past 1e-9 over a 100k-request trace. The float additions
        are two per step (into locals, stored once — same value
        sequence, same rounding) — the per-step work the fast path
        actually avoids is the *pricing*, which is three orders of
        magnitude dearer. The trace
        receives one replica ``decode`` span carrying ``steps`` and one
        request ``decode[a..b]`` span per sequence, so attribution still
        tiles each request's ``e2e_s``.
        """
        running = self.running
        run_start = clock = self.clock
        busy = self.busy_s
        for step_s in costs:
            clock += step_s
            busy += step_s
        self.clock = clock
        self.busy_s = busy
        self.iterations += steps
        self.outstanding_tokens -= steps * len(running)
        if self.collect_gaps:
            self.decode_gaps.extend(costs)
        tracer = self.tracer
        if not tracer.enabled:
            for seq in running:
                seq.generated += steps
                seq.last_event_s = clock
            return
        compute_s, memory_s = self._cost.range_cost(
            batch, mean_kv, mean_kv + steps)[1:]
        tracer.span(self._track, "decode", run_start, clock,
                    category="replica",
                    args={"batch_size": batch, "mean_kv": mean_kv,
                          "steps": steps, "coalesced": True,
                          "compute_s": compute_s, "memory_s": memory_s})
        tracer.counter(self._track, "batch_size", run_start, batch)
        for seq in running:
            first = seq.generated
            seq.generated += steps
            tracer.span(request_track(seq.request.request_id),
                        f"decode[{first}..{seq.generated - 1}]",
                        seq.last_event_s, clock, category="request",
                        args={"replica": self.name, "kv_len": seq.kv_len,
                              "batch_size": batch, "steps": steps})
            seq.last_event_s = clock

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
        lost += [seq.request for seq in self.prefilling + self.running]
        wasted = sum(seq.generated for seq in self.running)
        self.pending.clear()
        self._queued_prefill_s = None
        self.prefilling.clear()
        self.running.clear()
        self.outstanding_tokens = 0
        return lost, wasted
