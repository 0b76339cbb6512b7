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

from typing import Optional, Sequence

from repro.cluster.node import ReplicaNode
from repro.engine.backend import ExecutionBackend
from repro.engine.inference import InferenceSimulator
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.serving.arrivals import ArrivingRequest, ServingReport
from repro.trace.tracer import NOOP_TRACER, Tracer


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

    def _node(self, policy: str, tracer: Tracer, **kwargs) -> ReplicaNode:
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
