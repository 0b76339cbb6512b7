"""CPU-GPU hybrid execution study (Section VI, second optimization).

FlexGen leaves CPU compute idle except for attention. The paper argues
that for models requiring heavy PCIe streaming, assigning a *fraction of
the decoder layers* to the CPU shrinks the weight volume the GPU must pull
over PCIe — and the CPU's layer compute overlaps with the remaining
transfers. :class:`HybridPlanner` searches the layer split that minimizes
per-step critical-path time:

    step(f) = max( cpu_time(f) + gpu_compute(1-f),  transfer(1-f) )

where transfers overlap with all compute (double-buffered), the CPU
executes its layers from its own memory at CPU speed, and the GPU's
resident-weight budget covers its layers first.
"""

import dataclasses

from repro.engine.backend import BaselineBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import PAPER_DEFAULT_REQUEST, InferenceRequest
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.offload.engine import OffloadSimulator
from repro.offload.policy import (
    DEFAULT_OFFLOAD_CALIBRATION,
    OffloadCalibration,
    hybrid_streamed_weight_bytes,
)
from repro.offload.zigzag import amortization_factor

#: Step of the CPU layer-fraction search (0, 0.05, ..., 1).
GRANULARITY = 0.05


@dataclasses.dataclass(frozen=True)
class HybridPlan:
    """Selected hybrid execution split and its projected performance.

    Attributes:
        cpu_layer_fraction: Fraction of decoder layers assigned to the CPU.
        step_time_s: Projected per-decode-step critical-path time.
        cpu_only_step_s: Per-step time with all layers on the CPU.
        gpu_offload_step_s: Per-step time with pure GPU offloading.
    """

    cpu_layer_fraction: float
    step_time_s: float
    cpu_only_step_s: float
    gpu_offload_step_s: float

    @property
    def speedup_vs_gpu_offload(self) -> float:
        """Gain over pure offloading-based GPU execution."""
        return self.gpu_offload_step_s / self.step_time_s


class HybridPlanner:
    """Searches the best CPU/GPU layer split for one (model, request).

    Both sides hold BF16 weights (:class:`BaselineBackend`), the dtype
    the CPU and offloaded GPU legs price at.

    Args:
        cpu: CPU platform (computes its layer share from local memory).
        gpu: GPU platform (must offload the model for hybrid to make sense).
        calibration: Offloading constants shared with the pure-GPU baseline.
    """

    def __init__(self, cpu: Platform, gpu: Platform,
                 calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION):
        if not cpu.is_cpu or not gpu.is_gpu:
            raise ValueError("HybridPlanner needs one CPU and one GPU platform")
        self.cpu = cpu
        self.gpu = gpu
        self.calibration = calibration

    def _cpu_step_time(self, model: ModelConfig,
                       request: InferenceRequest) -> float:
        """Mean decode-step time with the whole model on the CPU."""
        result = InferenceSimulator(self.cpu).run(model, request)
        return result.tpot_s

    def _gpu_offload_step_time(self, model: ModelConfig,
                               request: InferenceRequest) -> float:
        """Mean decode-step time with pure offloading on the GPU."""
        result = OffloadSimulator(self.gpu, self.calibration).run(model, request)
        return result.tpot_s

    def _hybrid_step_time(self, f_cpu: float, weights: float,
                          request: InferenceRequest,
                          cpu_step: float, gpu_step_compute: float) -> float:
        """Critical-path step time for a given CPU layer fraction."""
        streamed = hybrid_streamed_weight_bytes(
            (1.0 - f_cpu) * weights, self.gpu, self.calibration)
        pcie_bw = (self.gpu.host_link.nominal_bw
                   * self.calibration.pcie_efficiency)
        transfer = streamed / pcie_bw / amortization_factor(
            request.batch_size, self.calibration)
        compute = f_cpu * cpu_step + (1.0 - f_cpu) * gpu_step_compute
        return max(compute, transfer)

    def plan(self, model: ModelConfig) -> HybridPlan:
        """Search CPU layer fractions for the paper's default request and
        return the best split."""
        request = PAPER_DEFAULT_REQUEST
        cpu_step = self._cpu_step_time(model, request)
        gpu_offload_step = self._gpu_offload_step_time(model, request)
        # GPU compute leg per step if all weights were resident: bounded by
        # HBM streaming of the resident share; approximate with the GPU's
        # in-memory step time scaled from weight traffic.
        gpu_bw = self.gpu.peak_memory_bandwidth * self.gpu.stream_efficiency
        weights = BaselineBackend().weight_bytes(model)
        gpu_step_compute = weights / gpu_bw

        best_fraction = 0.0
        best_time = float("inf")
        steps = int(round(1.0 / GRANULARITY))
        for i in range(steps + 1):
            f_cpu = i * GRANULARITY
            t = self._hybrid_step_time(f_cpu, weights, request,
                                       cpu_step, gpu_step_compute)
            if t < best_time:
                best_time = t
                best_fraction = f_cpu
        return HybridPlan(
            cpu_layer_fraction=best_fraction,
            step_time_s=best_time,
            cpu_only_step_s=cpu_step,
            gpu_offload_step_s=gpu_offload_step,
        )
