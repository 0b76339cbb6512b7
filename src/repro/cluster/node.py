"""Iteration-steppable serving replica: the one scheduler loop.

:class:`ReplicaNode` is the loop behind every batching policy of
:class:`repro.serving.scheduler.BatchingSimulator` and every replica of
:class:`repro.cluster.simulator.ClusterSimulator`. Instead of consuming
a whole arrival trace in one call, the node exposes

* :meth:`submit` — route one request to the node's local queue,
* :meth:`next_event_time` — when the node's next scheduler iteration
  would start (``None`` while idle),
* :meth:`advance` — execute exactly one scheduler iteration
  (admissions, retirements onto ``completed``, one fused decode step,
  which bumps the running set's decode tick), and
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
import sys
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
#: The earliest finish tick of an empty running set: never.
_NO_FINISH = sys.maxsize
#: Relative rounding of one float addition (see :meth:`advance_to`).
_EPS = sys.float_info.epsilon


def check_batching_policy(policy: str) -> str:
    """Return *policy* if it names a batching discipline, else raise."""
    if policy not in BATCHING_POLICIES:
        raise ValueError(f"unknown batching policy {policy!r}; expected "
                         f"one of {', '.join(BATCHING_POLICIES)}")
    return policy


@dataclasses.dataclass(slots=True)
class _Running:
    """One request's record on the node, from :meth:`submit` to retirement.

    ``ready_s`` is when the node may admit it: the arrival time for a
    normally routed request, or the requeue time for a request rescued
    from a failed node (its ``request.arrival_s`` stays original so TTFT
    keeps charging the lost time). Admission stamps ``start_s`` and
    ``first_token_s`` and moves the record from ``pending`` into the
    batch (``prompt_left``: chunked prefill still owed).
    ``last_event_s``, the end of its latest span, is written only under
    a recording tracer, its one reader.
    """

    request: ArrivingRequest
    ready_s: float
    start_s: float = dataclasses.field(default=0.0, init=False)
    first_token_s: float = dataclasses.field(default=0.0, init=False)
    # Tokens produced so far (prefill's counts as 1) are ``base`` plus
    # the node's decode tick; set when the sequence joins the batch.
    base: int = dataclasses.field(default=0, init=False)
    last_event_s: float = dataclasses.field(default=0.0, init=False)
    prompt_left: int = dataclasses.field(default=0, init=False)


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
                 "running", "prefilling", "outstanding_tokens", "_tick",
                 "_finish_min", "_finish_max", "_kv_base",
                 "_cohort_size", "_cohort_input", "completed",
                 "decode_gaps", "generated_tokens", "_busy_closed",
                 "_busy_from", "iterations", "peak_queue", "draining",
                 "active", "admission_stamps", "tier", "_queued_prefill_s")

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
        self.pending: List[_Running] = []
        # backlog_s's queued-prefill sum; None once the queue changed.
        self._queued_prefill_s: Optional[float] = None
        self.running: List[_Running] = []
        # Decode tick: a running sequence has ``base + _tick`` tokens.
        # The running set's earliest/latest finish tick (``output_len -
        # base``) and Σ(input_len + base) change only where a sequence
        # joins (:meth:`_join`) or leaves (:meth:`_retire`, :meth:`fail`);
        # live KV tokens are ``_kv_base + len(running) * _tick``.
        self._tick = self._finish_max = self._kv_base = 0
        self._finish_min = _NO_FINISH
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
        # Closed busy periods' total; the open one's start (busy_s).
        self._busy_closed = self._busy_from = 0.0
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

    @property
    def busy_s(self) -> float:
        """Seconds spent prefilling or decoding: the busy periods' sum.

        :meth:`advance` closes a period wherever it moves the clock over
        an idle gap, so no step adds its cost anywhere but to the clock.
        """
        return self._busy_closed + (self.clock - self._busy_from)

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
        batch = len(self.running)
        if batch:
            remaining = self._finish_max - self._tick
            mean_kv = int((self._kv_base + batch * self._tick) / batch)
            backlog += remaining * self._cost.step_time(batch,
                                                        max(1, mean_kv))
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
        entry = _Running(request, max(ready_s, request.arrival_s))
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

    def _admit_next(self, start: float) -> Optional[_Running]:
        """Admit a request into a free slot; the queue head is ready.

        The built-in FCFS path pops the queue head. With a scheduler
        attached, the scheduler chooses among the ready prefix; ``None``
        from a (contract-violating, non-work-conserving) scheduler falls
        back to admitting nothing this iteration. The popped record,
        stamped with its start at the clock, is returned.
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
        queued.start_s = self.clock
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
        return queued

    def _trace_prefill(self, seq: _Running, legs: Tuple[float, float],
                       **args) -> None:
        request = seq.request
        self.tracer.span(request_track(request.request_id), "prefill",
                         seq.start_s, self.clock, category="request",
                         args={"replica": self.name,
                               "input_len": request.input_len,
                               "compute_s": legs[0], "memory_s": legs[1],
                               **args})

    def _admit_cohort(self, start: float) -> None:
        """Static admission: one padded cohort, only into an empty node."""
        if self.running:
            return
        cohort: List[_Running] = []
        while (self.pending and self.pending[0].ready_s <= self.clock
               and len(cohort) < self.max_batch):
            seq = self._admit_next(start)
            if seq is None:
                break
            cohort.append(seq)
        if not cohort:
            return
        self._cohort_size = batch = len(cohort)
        self._cohort_input = longest = max(seq.request.input_len
                                           for seq in cohort)
        self.clock += self._prefill_cost(batch, longest)
        self.outstanding_tokens -= batch  # each prefill emits one token
        for seq in cohort:
            self._join(seq, self.clock)
        if self.tracer.enabled:
            legs = self._prefill_legs(batch, longest)
            for seq in cohort:
                self._trace_prefill(seq, legs, batch_size=batch)
            self.tracer.span(self._track, "prefill", start, self.clock,
                             category="replica",
                             args={"batch_size": batch, "input_len": longest,
                                   "compute_s": legs[0],
                                   "memory_s": legs[1]})

    def _admit_prompts(self, start: float) -> None:
        """Chunked admission: free slots count prompts still in flight."""
        while (self.pending and self.pending[0].ready_s <= self.clock
               and len(self.running) + len(self.prefilling) < self.max_batch):
            seq = self._admit_next(start)
            if seq is None:
                break
            seq.prompt_left = seq.request.input_len
            self.prefilling.append(seq)

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
            self._join(job, end)
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

    def _join(self, seq: _Running, first_token_s: float) -> None:
        """Add *seq* (first token at *first_token_s*); keep aggregates."""
        seq.first_token_s = first_token_s
        seq.base = base = 1 - self._tick
        request = seq.request
        finish = request.output_len - base
        if finish < self._finish_min:
            self._finish_min = finish
        if finish > self._finish_max:
            self._finish_max = finish
        self._kv_base += request.input_len + base
        if self.tracer.enabled:
            seq.last_event_s = first_token_s
        self.running.append(seq)

    def _retire(self) -> None:
        """Retire every finished sequence at the clock, onto ``completed``.

        The loop recomputes the aggregates over the sequences it keeps.
        """
        still: List[_Running] = []
        tick = self._tick
        finish_min, finish_max, kv_base = _NO_FINISH, 0, 0
        tracer = self.tracer
        for seq in self.running:
            request = seq.request
            finish = request.output_len - seq.base
            if finish > tick:
                still.append(seq)
                if finish < finish_min:
                    finish_min = finish
                if finish > finish_max:
                    finish_max = finish
                kv_base += request.input_len + seq.base
                continue
            self.outstanding_tokens -= (request.input_len + request.output_len
                                        - seq.base - tick)
            record = CompletedRequest(request.request_id, request.arrival_s,
                                      seq.start_s, seq.first_token_s,
                                      self.clock)
            self.completed.append(record)
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
        self._finish_min, self._finish_max = finish_min, finish_max
        self._kv_base = kv_base

    def advance(self) -> None:
        """Run one scheduler iteration.

        Admit as the discipline allows, retire finished sequences (onto
        :attr:`completed`), run one fused decode step. Retirement waits
        behind admission prefills, except on a chunked node, whose
        admissions take no time: it admits after retiring, so freed
        slots refill at once. The iteration starts at
        :meth:`next_event_time`.
        """
        start = self.next_event_time()
        if start is None:
            return
        if start != self.clock:
            # The clock crosses an idle gap: close the busy period.
            self._busy_closed += self.clock - self._busy_from
            self._busy_from = self.clock = start
        tracer = self.tracer
        stall = lead = 0.0
        if self._static:
            self._admit_cohort(start)
        elif not self._chunked:
            # Continuous: prefill each admission in full, in turn; time
            # spent while sequences were already running stalls them.
            while (self.pending and len(self.running) < self.max_batch
                   and self.pending[0].ready_s <= self.clock):
                seq = self._admit_next(start)
                if seq is None:
                    break
                request = seq.request
                prefill = self._prefill_cost(1, request.input_len)
                self.clock += prefill
                if self.running:
                    stall += prefill
                self.outstanding_tokens -= 1
                self._join(seq, self.clock)
                if tracer.enabled:
                    legs = self._prefill_legs(1, request.input_len)
                    self._trace_prefill(seq, legs)
                    tracer.span(self._track, "prefill", seq.start_s,
                                self.clock, category="replica",
                                args={"request_id": request.request_id,
                                      "input_len": request.input_len,
                                      "batch_size": len(self.running),
                                      "compute_s": legs[0],
                                      "memory_s": legs[1]})
        if self._finish_min <= self._tick:
            self._retire()  # most iterations retire nobody
        cohort = self.running
        held = None
        if self._chunked:
            self._admit_prompts(start)
            lead = self._prefill_chunk()
            if self._finish_min <= self._tick:
                # A single-token prompt the chunk just finished (nothing
                # else is done after retirement): it emits no decode
                # token and retires at the next boundary.
                held = cohort[-1]
                cohort = cohort[:-1]
        if cohort:
            tick = self._tick
            if self._static:
                batch = self._cohort_size
                mean_kv = self._cohort_input + cohort[0].base + tick - 1
            else:
                batch = len(cohort)
                total_kv = self._kv_base + len(self.running) * tick
                if held is not None:
                    total_kv -= held.request.input_len + 1
                mean_kv = int(total_kv / batch)
            cost = self._cost
            if self.exact:
                iteration = cost.executor.decode_step(cost.model, batch,
                                                      mean_kv)[0]
            else:
                # DecodeCostTable.step_time, read off the curve directly.
                kv = mean_kv if mean_kv > 1 else 1
                curve = cost._curves.get(batch) or cost.curve(batch)
                step_t = curve.step_t
                if len(step_t) <= kv:
                    curve.ensure(kv + 1)
                iteration = step_t[kv]
            decode_start = self.clock + lead
            fused = lead + iteration
            self.clock += fused
            self.outstanding_tokens -= len(cohort)
            if self.collect_gaps:
                self.decode_gaps.append(stall + fused)
            self._tick = tick = tick + 1
            if held is not None:
                # Keep the held-out prompt at its one token; it was the
                # earliest finisher, now due at this tick.
                held.base -= 1
                self._kv_base -= 1
                self._finish_min += 1
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
                for seq in cohort:
                    generated = seq.base + tick
                    # The token span starts at this sequence's previous
                    # token (covering any admission-prefill stall), so a
                    # request's decode spans tile first-token→last-token.
                    tracer.span(request_track(seq.request.request_id),
                                f"decode[{generated - 1}]",
                                seq.last_event_s, clock, category="request",
                                args={"replica": self.name,
                                      "kv_len": seq.request.input_len
                                      + generated,
                                      "batch_size": batch})
                    seq.last_event_s = clock
        else:
            self.clock += lead
        self.iterations += 1

    def advance_to(self, horizon: Optional[float] = None) -> None:
        """Run every iteration starting strictly before *horizon*.

        ``None`` runs the node to completion. Iterations starting at or
        after the horizon are left for the caller's next call — the same
        strict ordering the cluster loop's admin-before-iteration
        tie-break gives per-iteration stepping.

        One loop serves every mode. Each pass starts where
        :meth:`next_event_time` says, reads the pure-decode window inline
        and either coalesces it or runs one :meth:`advance`. The window's
        step limit is the closest running sequence's remaining tokens, so
        a run of ``limit`` steps ends on the iteration that emits its last
        token and the next pass (retirement) goes to :meth:`advance`. The
        window is empty unless the batch is non-empty, no prompt is in
        flight, nobody is finished and no admission can happen at its
        start. It prices a static cohort's padded shape, which admits
        nothing until fully retired, else the live batch at its floor
        mean KV. Its budget runs to the earlier of *horizon* and, if a
        slot is free, the queue head's readiness; a binary search over
        the shared prefix-sum curve turns it into a step count (step j
        runs iff it starts strictly inside the budget), as a pure-decode
        run's mean KV grows by exactly 1 per step. The prefix sums round
        unlike the clock's running sum, so a last step starting within
        rounding of the bound is left to the next pass, which reads the
        clock. :meth:`_fast_forward` adds the run's costs ``step_t[
        mean_kv:mean_kv + steps]`` to the clock one at a time. Untraced,
        a lone step is coalesced too, so :meth:`advance` runs only where
        an iteration admits, retires or prefills a chunk; a recording
        tracer keeps single steps on :meth:`advance` for their spans.
        ``exact=True`` steps and prices every iteration individually.
        """
        if not (self.pending or self.running or self.prefilling):
            return
        exact = self.exact
        # Shortest run fast mode coalesces.
        shortest = 2 if self.tracer.enabled else 1
        cost = self._cost
        curves = cost._curves
        # The queue and in-flight prompt lists change only in place.
        pending, prefilling = self.pending, self.prefilling
        static, max_batch = self._static, self.max_batch
        retiring = False  # the last run ended on some sequence's last token
        while True:
            running = self.running
            start = self.clock
            if not (running or prefilling):
                if not pending:
                    return
                ready = pending[0].ready_s
                if ready > start:
                    start = ready
            if horizon is not None and start >= horizon:
                return
            if retiring or exact or not running or prefilling:
                retiring = False
                self.advance()
                continue
            tick = self._tick
            limit = self._finish_min - tick
            if limit < 1:
                self.advance()
                continue
            bound = horizon
            if static:
                batch = self._cohort_size
                mean_kv = self._cohort_input + running[0].base + tick - 1
            else:
                batch = len(running)
                mean_kv = (self._kv_base + batch * tick) // batch
                if mean_kv < 1:
                    mean_kv = 1
                if pending and batch < max_batch:
                    ready = pending[0].ready_s
                    if ready <= start:  # admissible now: step normally
                        self.advance()
                        continue
                    if bound is None or ready < bound:
                        bound = ready
            curve = curves.get(batch) or cost.curve(batch)
            prefix = curve.prefix_t
            if len(prefix) < mean_kv + limit:
                curve.ensure(mean_kv + limit)
            steps = limit
            if bound is not None:
                base = mean_kv - 1
                target = prefix[base] + (bound - start)
                steps = bisect_left(prefix, target, base, base + limit) - base
                if steps > 1 and target - prefix[base + steps - 1] <= \
                        (steps + 4) * _EPS * (bound + target):
                    # The last step starts within rounding of the bound:
                    # leave it to the next pass, which reads the clock.
                    steps -= 1
            if steps < shortest:
                self.advance()
                continue
            retiring = steps == limit
            self._fast_forward(steps, batch, mean_kv,
                               curve.step_t[mean_kv:mean_kv + steps])

    def _fast_forward(self, steps: int, batch: int, mean_kv: int,
                      costs: Sequence[float]) -> None:
        """Execute *steps* pure-decode iterations as one coalesced block.

        The one path every coalesced run takes. *costs* is the block's
        per-iteration cost sequence (a ``step_t`` curve slice). The
        running set advances by one bump of the decode tick, whatever
        its size. The clock advances by adding the step costs *one at a
        time*, in the same order the per-iteration loop would: a
        request's TTFT is a tiny difference of huge timestamps, so even
        the one-ulp-per-run drift of adding a range sum instead of the
        step sequence would amplify past 1e-9 over a 100k-request trace.
        That is one float addition per step (into a local, stored once),
        and the only one: the run lies inside one busy period. The
        per-step work the fast path actually avoids is the *pricing*,
        which is three orders of magnitude dearer. Only under a
        recording tracer are the block's (compute_s, memory_s)
        attribution legs read off the shared curve by ``range_cost``;
        the trace receives one replica ``decode`` span carrying
        ``steps`` and one request ``decode[a..b]`` span per sequence, so
        attribution still tiles each request's ``e2e_s``.
        """
        run_start = clock = self.clock
        for step_s in costs:
            clock += step_s
        self.clock = clock
        self.iterations += steps
        self.outstanding_tokens -= steps * len(self.running)
        if self.collect_gaps:
            self.decode_gaps.extend(costs)
        self._tick = tick = self._tick + steps
        tracer = self.tracer
        if not tracer.enabled:
            return
        compute_s, memory_s = self._cost.range_cost(
            batch, mean_kv, mean_kv + steps)[1:]
        tracer.span(self._track, "decode", run_start, clock,
                    category="replica",
                    args={"batch_size": batch, "mean_kv": mean_kv,
                          "steps": steps, "coalesced": True,
                          "compute_s": compute_s, "memory_s": memory_s})
        tracer.counter(self._track, "batch_size", run_start, batch)
        for seq in self.running:
            generated = seq.base + tick
            tracer.span(request_track(seq.request.request_id),
                        f"decode[{generated - steps}..{generated - 1}]",
                        seq.last_event_s, clock, category="request",
                        args={"replica": self.name,
                              "kv_len": seq.request.input_len + generated,
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
        wasted = (sum(seq.base for seq in self.running)
                  + len(self.running) * self._tick)
        self.pending.clear()
        self._queued_prefill_s = None
        self.prefilling.clear()
        self.running.clear()
        self._finish_min, self._finish_max, self._kv_base = _NO_FINISH, 0, 0
        self.outstanding_tokens = 0
        return lost, wasted
