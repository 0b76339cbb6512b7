"""Result dataclasses: per-phase statistics and whole-request metrics.

Field names follow the paper's metric vocabulary (Section II-C): TTFT,
TPOT, E2E latency, and tokens/second throughput per phase.
"""

import dataclasses
from typing import Dict, List

from repro.engine.executor import OpTiming
from repro.engine.request import InferenceRequest


@dataclasses.dataclass(frozen=True)
class PhaseStats:
    """Aggregated execution statistics for one inference phase.

    Attributes:
        name: "prefill" or "decode".
        time_s: Total simulated phase time.
        flops: FLOPs executed.
        weight_bytes / activation_bytes / kv_bytes: Memory traffic by
            category (decode's kv_bytes include reads of the whole cache
            every step — the phase's defining cost).
        compute_busy_s: Time the compute leg would need alone.
        memory_busy_s: Time the memory leg would need alone.
        op_times: Total time per operator name (breakdown analyses).
    """

    name: str
    time_s: float
    flops: float
    weight_bytes: float
    activation_bytes: float
    kv_bytes: float
    compute_busy_s: float
    memory_busy_s: float
    op_times: Dict[str, float]

    @property
    def total_bytes(self) -> float:
        """All memory traffic in the phase."""
        return self.weight_bytes + self.activation_bytes + self.kv_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Phase FLOPs per byte of traffic."""
        if self.total_bytes == 0:
            return 0.0
        return self.flops / self.total_bytes


def phase_stats_from_timings(name: str, timings: List[OpTiming]) -> PhaseStats:
    """Aggregate a list of op timings into one :class:`PhaseStats`."""
    op_times: Dict[str, float] = {}
    for t in timings:
        op_times[t.op.name] = op_times.get(t.op.name, 0.0) + t.time_s
    return PhaseStats(
        name=name,
        time_s=sum(t.time_s for t in timings),
        flops=sum(t.op.flops for t in timings),
        weight_bytes=sum(t.op.weight_bytes for t in timings),
        activation_bytes=sum(t.op.activation_bytes for t in timings),
        kv_bytes=sum(t.op.kv_read_bytes + t.op.kv_write_bytes for t in timings),
        compute_busy_s=sum(t.compute_s for t in timings),
        memory_busy_s=sum(t.memory_s for t in timings),
        op_times=op_times,
    )


def merge_phase_stats(name: str, phases: List[PhaseStats]) -> PhaseStats:
    """Sum several phases (e.g. all decode steps) into one aggregate."""
    op_times: Dict[str, float] = {}
    for phase in phases:
        for op_name, t in phase.op_times.items():
            op_times[op_name] = op_times.get(op_name, 0.0) + t
    return PhaseStats(
        name=name,
        time_s=sum(p.time_s for p in phases),
        flops=sum(p.flops for p in phases),
        weight_bytes=sum(p.weight_bytes for p in phases),
        activation_bytes=sum(p.activation_bytes for p in phases),
        kv_bytes=sum(p.kv_bytes for p in phases),
        compute_busy_s=sum(p.compute_busy_s for p in phases),
        memory_busy_s=sum(p.memory_busy_s for p in phases),
        op_times=op_times,
    )


@dataclasses.dataclass(frozen=True)
class InferenceResult:
    """Complete simulated execution of one request on one platform.

    All latency metrics are in (simulated) seconds.

    Attributes:
        model_name / platform_name: Identification.
        request: The request executed.
        prefill: Prefill-phase statistics (TTFT = prefill.time_s).
        decode: Aggregate of all decode steps.
        config_label: NUMA/core configuration label ("quad_flat/48c", or
            "" for GPUs).
    """

    model_name: str
    platform_name: str
    request: InferenceRequest
    prefill: PhaseStats
    decode: PhaseStats
    config_label: str = ""

    # -- latency metrics (Section II-C) -----------------------------------

    @property
    def ttft_s(self) -> float:
        """Time to first token: the prefill phase latency."""
        return self.prefill.time_s

    @property
    def tpot_s(self) -> float:
        """Time per output token: mean decode-step latency (0 if no steps)."""
        if self.request.decode_steps == 0:
            return 0.0
        return self.decode.time_s / self.request.decode_steps

    @property
    def e2e_s(self) -> float:
        """End-to-end latency: prefill + all decode steps."""
        return self.prefill.time_s + self.decode.time_s

    # -- throughput metrics ------------------------------------------------

    @property
    def e2e_throughput(self) -> float:
        """Generated tokens per second over the whole request."""
        return self.request.total_generated_tokens / self.e2e_s

    @property
    def prefill_throughput(self) -> float:
        """Prompt tokens processed per second during prefill."""
        return self.request.batch_size * self.request.input_len / self.ttft_s

    @property
    def decode_throughput(self) -> float:
        """Tokens generated per second during decode (0 if no steps)."""
        if self.decode.time_s == 0:
            return 0.0
        return (self.request.batch_size * self.request.decode_steps
                / self.decode.time_s)

    def summary(self) -> Dict[str, float]:
        """Flat dict of the six headline metrics (for tables/benchmarks)."""
        return {
            "ttft_s": self.ttft_s,
            "tpot_s": self.tpot_s,
            "e2e_s": self.e2e_s,
            "e2e_throughput": self.e2e_throughput,
            "prefill_throughput": self.prefill_throughput,
            "decode_throughput": self.decode_throughput,
        }
