"""Bottleneck attribution: where does the time go, and against which wall?

The characterization tooling behind the paper's narrative sentences
("prefill is compute-bound", "decode demands substantial I/O"). Given a
simulated run, attribute each phase's time to operators and classify each
operator against the roofline (compute-bound / memory-bound / overhead-
bound), producing the per-op breakdown a VTune hotspot view would give.
"""

import dataclasses
from typing import Dict, List

from repro.engine.executor import OpTiming
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig


@dataclasses.dataclass(frozen=True)
class OpAttribution:
    """Attribution of one operator within a phase.

    Attributes:
        name: Operator name.
        time_s: Phase time the operator accounts for.
        share: Fraction of the phase's total time.
        bound: "memory", "compute", or "overhead".
        engine: Engine that executed it.
    """

    name: str
    time_s: float
    share: float
    bound: str
    engine: str


@dataclasses.dataclass(frozen=True)
class PhaseAttribution:
    """Ranked operator attribution for one phase.

    Attributes:
        phase: "prefill" or "decode_step".
        total_s: Phase total time.
        ops: Attributions, largest share first.
    """

    phase: str
    total_s: float
    ops: List[OpAttribution]

    def bound_shares(self) -> Dict[str, float]:
        """Fraction of phase time behind each wall (memory/compute/overhead)."""
        shares: Dict[str, float] = {}
        for op in self.ops:
            shares[op.bound] = shares.get(op.bound, 0.0) + op.share
        return shares


def _classify(timing: OpTiming) -> str:
    busy = max(timing.compute_s, timing.memory_s)
    if timing.overhead_s > busy:
        return "overhead"
    return "memory" if timing.memory_bound else "compute"


def _attribute(phase: str, timings: List[OpTiming]) -> PhaseAttribution:
    total = sum(t.time_s for t in timings)
    ops = [
        OpAttribution(
            name=t.op.name,
            time_s=t.time_s,
            share=t.time_s / total if total else 0.0,
            bound=_classify(t),
            engine=t.engine_name,
        )
        for t in timings
    ]
    ops.sort(key=lambda op: op.time_s, reverse=True)
    return PhaseAttribution(phase=phase, total_s=total, ops=ops)


class BottleneckAnalyzer:
    """Produces per-op attributions for (model, request) on one platform."""

    def __init__(self, platform: Platform):
        self.platform = platform
        self._simulator = InferenceSimulator(platform)

    def prefill(self, model: ModelConfig,
                request: InferenceRequest = InferenceRequest()) -> PhaseAttribution:
        """Attribute the prefill pass."""
        executor = self._simulator._executor(model, request)
        timings = executor.time_ops(executor.backend.prefill_ops(
            model, request.batch_size, request.input_len))
        return _attribute("prefill", timings)

    def decode_step(self, model: ModelConfig,
                    request: InferenceRequest = InferenceRequest()
                    ) -> PhaseAttribution:
        """Attribute one decode step at the mid-generation KV length."""
        executor = self._simulator._executor(model, request)
        kv_len = request.input_len + request.decode_steps // 2
        timings = executor.time_ops(executor.backend.decode_ops(
            model, request.batch_size, kv_len))
        return _attribute("decode_step", timings)
