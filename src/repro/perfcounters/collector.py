"""Counter derivation from a simulated inference run.

:class:`CounterModel` wraps an :class:`~repro.engine.inference.InferenceSimulator`
and converts its per-phase statistics into :class:`CounterEstimates`.
"""

from typing import Optional

from repro.engine.backend import ExecutionBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.engine.results import InferenceResult
from repro.hardware.compute import EngineKind
from repro.hardware.interconnect import upi_link
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.perfcounters.counters import (
    BOOKKEEPING_FRACTION,
    CounterEstimates,
    FLOPS_PER_INSTRUCTION,
    LINE_BYTES,
    OPERAND_LOAD_FLOPS,
)


class CounterModel:
    """Estimates hardware counters for (model, request) on one platform.

    Args:
        platform: CPU platform (counters target the CPU figures; GPU runs
            are accepted but UPI/remote metrics degenerate to zero).
        backend / cores: :class:`InferenceSimulator`'s; the remote-access
            fraction is the placement of the backend that prices the run.
    """

    def __init__(self, platform: Platform,
                 backend: Optional[ExecutionBackend] = None, *,
                 cores: Optional[int] = None):
        self.platform = platform
        self.simulator = InferenceSimulator(platform, backend, cores=cores)

    def _flops_per_instruction(self) -> float:
        """FLOPs/instruction of the dominant GEMM engine."""
        kinds = {engine.kind for engine in self.platform.engines}
        if EngineKind.MATRIX in kinds:
            return FLOPS_PER_INSTRUCTION["matrix"]
        if EngineKind.GPU_TENSOR in kinds:
            return FLOPS_PER_INSTRUCTION["gpu_tensor"]
        return FLOPS_PER_INSTRUCTION["vector"]

    def estimate(self, model: ModelConfig,
                 request: InferenceRequest) -> CounterEstimates:
        """Run the simulation and derive counters for the whole request."""
        result = self.simulator.run(model, request)
        return self.from_result(result)

    def from_result(self, result: InferenceResult) -> CounterEstimates:
        """Derive counters from an existing simulation result."""
        total_flops = result.prefill.flops + result.decode.flops
        total_bytes = result.prefill.total_bytes + result.decode.total_bytes
        streaming = (result.prefill.weight_bytes + result.decode.weight_bytes
                     + result.decode.kv_bytes)
        activations = (result.prefill.activation_bytes
                       + result.decode.activation_bytes)
        wall = result.e2e_s

        compute_instr = total_flops / self._flops_per_instruction()
        ls_instr = (total_bytes / LINE_BYTES
                    + total_flops / OPERAND_LOAD_FLOPS)
        instructions = (compute_instr + ls_instr) * (1.0 + BOOKKEEPING_FRACTION)

        llc = self.platform.caches.llc.capacity_bytes
        # Streaming traffic misses once per pass; activations miss for the
        # portion of each pass's working set beyond LLC capacity. Passes =
        # 1 prefill + decode steps; activation overflow is approximated at
        # the whole-request granularity the PhaseStats track.
        passes = 1 + result.request.decode_steps
        activation_overflow = max(0.0, activations - llc * passes)
        llc_misses = (streaming + activation_overflow) / LINE_BYTES
        llc_mpki = llc_misses / (instructions / 1000.0)

        compute_busy = (result.prefill.compute_busy_s
                        + result.decode.compute_busy_s)
        core_utilization = min(1.0, compute_busy / wall) if wall else 0.0

        upi_utilization = 0.0
        remote_fraction = 0.0
        if self.platform.is_cpu:
            scaling = self.simulator._scaling
            remote_fraction = \
                self.simulator.numa_model().remote_access_fraction
            upi_fraction = scaling.upi_traffic_fraction()
            if upi_fraction > 0 and wall > 0:
                upi_bytes = total_bytes * upi_fraction
                upi_utilization = min(
                    1.0, (upi_bytes / upi_link().effective_bw) / wall)
            else:
                upi_utilization = 0.02  # housekeeping/coherence baseline

        llc_accesses = total_bytes / LINE_BYTES
        remote_llc_accesses = llc_accesses * remote_fraction

        return CounterEstimates(
            instructions=instructions,
            load_store_instructions=ls_instr,
            llc_misses=llc_misses,
            llc_mpki=llc_mpki,
            core_utilization=core_utilization,
            upi_utilization=upi_utilization,
            remote_llc_accesses=remote_llc_accesses,
            wall_time_s=wall,
        )
