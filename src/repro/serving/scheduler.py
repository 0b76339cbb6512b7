"""Batching-policy serving simulation: static, continuous, chunked prefill.

The paper's related work (Section VII-C) credits request-level batching
(FasterTransformer), iteration-level scheduling (Orca) and chunked
prefill (Sarathi-Serve) with making the large batch sizes of its sweeps
realistic in production. :class:`BatchingSimulator` serves an arrival
stream under each discipline. All three drive one
:class:`repro.cluster.node.ReplicaNode` — the fleet's scheduler loop,
with the discipline as a node parameter — so they share one cost model,
clock and tracing contract, and differences are purely scheduling.
"""

import dataclasses
from typing import List, Optional, Sequence

from repro.engine.backend import ExecutionBackend
from repro.engine.inference import InferenceSimulator
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.serving.arrivals import ArrivingRequest
from repro.trace.tracer import NOOP_TRACER, Tracer
from repro.utils.stats import mean, percentile

@dataclasses.dataclass(slots=True)
class CompletedRequest:
    """Per-request timing after a serving simulation.

    Attributes:
        request_id: Id from the arrival stream.
        arrival_s / start_s / first_token_s / finish_s: Lifecycle stamps.

    Slotted: million-request traces keep every record alive, and a
    ``__dict__``-carrying instance is two tracked objects for the
    cyclic GC to traverse instead of one (and ~3x the memory).
    """

    request_id: int
    arrival_s: float
    start_s: float
    first_token_s: float
    finish_s: float

    @property
    def queue_delay_s(self) -> float:
        """Time waiting before any computation."""
        return self.start_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Arrival-to-first-token latency (user-perceived TTFT)."""
        return self.first_token_s - self.arrival_s

    @property
    def e2e_s(self) -> float:
        """Arrival-to-completion latency."""
        return self.finish_s - self.arrival_s


@dataclasses.dataclass(frozen=True)
class ServingReport:
    """Aggregate outcome of one serving simulation.

    Attributes:
        policy: "static", "continuous", or "chunked".
        completed: Per-request records, in completion order.
        makespan_s: Last completion time.
        generated_tokens: Total tokens produced.
        decode_gaps: Inter-token gaps observed by running sequences (how
            long each was stalled between its consecutive tokens —
            admission prefills inflate this for continuous batching, which
            is exactly what chunked prefill bounds).

    ``completed`` is never empty — every runner raises ``ValueError``
    on an empty arrival stream — so the latency statistics below are
    always defined.
    """

    policy: str
    completed: List[CompletedRequest]
    makespan_s: float
    generated_tokens: int
    decode_gaps: List[float] = dataclasses.field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Aggregate generated tokens per second over the makespan."""
        return self.generated_tokens / self.makespan_s

    @property
    def mean_ttft_s(self) -> float:
        """Mean arrival-to-first-token latency."""
        return mean([r.ttft_s for r in self.completed])

    @property
    def p95_ttft_s(self) -> float:
        """95th-percentile TTFT (linear interpolation)."""
        return percentile([r.ttft_s for r in self.completed], 95)

    @property
    def max_decode_gap_s(self) -> float:
        """Worst stall between consecutive tokens of a running sequence."""
        return max(self.decode_gaps) if self.decode_gaps else 0.0

    @property
    def p95_decode_gap_s(self) -> float:
        """95th-percentile inter-token gap (linear interpolation)."""
        if not self.decode_gaps:
            return 0.0
        return percentile(self.decode_gaps, 95)


#: Batching disciplines a :class:`~repro.cluster.node.ReplicaNode` runs.
BATCHING_POLICIES = ("static", "continuous", "chunked")


def check_batching_policy(policy: str) -> str:
    """Return *policy* if it names a batching discipline, else raise."""
    if policy not in BATCHING_POLICIES:
        raise ValueError(f"unknown batching policy {policy!r}; expected "
                         f"one of {', '.join(BATCHING_POLICIES)}")
    return policy


class BatchingSimulator:
    """Serves an arrival stream under a batching policy.

    Each ``run_*`` drives one fresh
    :class:`~repro.cluster.node.ReplicaNode` through the stream; the node
    prices through its own executor and shared cost table.

    Args:
        platform: Execution platform (CPU path; GPUs must fit the model).
        model: Served model.
        max_batch: Maximum concurrent sequences.
        backend: Execution backend (quantized / TP / ...); ``None`` is
            plain BF16 dense execution, the historical behavior.

    Raises:
        MemoryCapacityError: If the replica's sizing shape does not fit
            (checked here, before any run).
    """

    def __init__(self, platform: Platform, model: ModelConfig,
                 max_batch: int = 8,
                 backend: Optional[ExecutionBackend] = None):
        InferenceSimulator(platform, backend).replica_executor(model,
                                                               max_batch)
        self.platform = platform
        self.model = model
        self.max_batch = max_batch
        self.backend = backend

    # -- batching policies ------------------------------------------------------
    # Each policy is one ReplicaNode driven through the whole stream.

    def _node(self, policy: str, tracer: Tracer, **kwargs):
        # Cycle: repro.cluster.node imports this module's request records.
        from repro.cluster.node import ReplicaNode
        return ReplicaNode("single", self.platform, self.model,
                           self.max_batch, self.backend,
                           tracer=tracer, policy=policy, **kwargs)

    def run_static(self, arrivals: Sequence[ArrivingRequest],
                   tracer: Tracer = NOOP_TRACER) -> ServingReport:
        """FasterTransformer-style: batch runs to completion, then re-admit.

        A cohort's decode steps are priced at the padded shape (cohort
        size, longest prompt + step) until its longest request
        finishes; each request's ``finish_s`` is its own last token. No
        inter-token gaps are collected.
        """
        return self._node("static", tracer).serve(arrivals)

    def run_continuous(self, arrivals: Sequence[ArrivingRequest],
                       tracer: Tracer = NOOP_TRACER,
                       exact: bool = False,
                       admission=None) -> ServingReport:
        """Orca-style iteration-level scheduling with immediate admission.

        Each scheduler iteration admits everything that has arrived, up
        to capacity — each admission pays its prefill pass serially, and
        already-running sequences stall for the admission prefills
        (the inter-token gap chunked prefill exists to bound) — then
        retires finished sequences and runs one fused decode step. A
        request arriving mid-iteration is considered at the next
        iteration boundary, exactly as in the fleet simulator.

        By default pure-decode stretches are fast-forwarded in closed
        form; ``exact=True`` steps and prices every iteration
        individually (the two agree to ≤1e-9 relative). *admission*
        plugs a queue-ordering policy
        (:class:`repro.cluster.admission.AdmissionScheduler`) into the
        node; ``None`` keeps the built-in FCFS loop.
        """
        return self._node("continuous", tracer, exact=exact,
                          collect_gaps=True,
                          admission=admission).serve(arrivals)

    def run_chunked(self, arrivals: Sequence[ArrivingRequest],
                    chunk_tokens: int = 256,
                    tracer: Tracer = NOOP_TRACER) -> ServingReport:
        """Sarathi-style chunked prefill fused with decode iterations.

        Admission prefills are split into *chunk_tokens*-sized pieces; each
        scheduler iteration runs one decode step for the running set plus
        at most one prefill chunk, so no running sequence ever stalls
        longer than one fused iteration — "dynamically batching without
        stalling ongoing decode" (paper Section VII-C on Sarathi-Serve).

        Traced request ``prefill`` spans cover the admission *window*
        (first chunk to first token), not busy time — the chunks are
        interleaved with decode on the node's replica track.
        """
        return self._node("chunked", tracer, chunk_tokens=chunk_tokens,
                          collect_gaps=True).serve(arrivals)
