"""Offloading placement policy (FlexGen-style, Section III / V).

When a model's inference footprint exceeds GPU memory, weights, KV cache,
and activations are split between GPU and CPU memory. The policy here
mirrors FlexGen's practical behaviour:

* a conservative fraction of GPU memory holds *resident* weights (the rest
  of GPU memory is workspace: activation buffers, fragmentation headroom,
  CUDA context — FlexGen's percent configs routinely leave half the card
  for these);
* the remaining weights live in CPU memory and must stream over PCIe
  **every decode step** (and once for prefill);
* the KV cache stays on GPU only while small; past a threshold it moves to
  CPU memory and attention is computed host-side (the paper notes FlexGen
  "typically underutilizes CPU computation resources, using them only for
  attention score calculations").
"""

import dataclasses

from repro.engine.backend import BaselineBackend
from repro.engine.request import InferenceRequest
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class OffloadCalibration:
    """Calibration constants for the offloading engine.

    Attributes:
        weight_residency_fraction: Fraction of GPU memory usable for
            resident weights (rest is workspace/KV/fragmentation).
        kv_gpu_capacity_fraction: KV cache stays on GPU while it fits in
            this fraction of GPU memory; beyond it, KV moves to host.
        pcie_efficiency: Achieved fraction of nominal PCIe bandwidth for
            offloading traffic (small per-layer blocks, pageable staging;
            well under bulk-copy rates).
        zigzag_amortization_slope: FlexGen's zig-zag block schedule reuses
            a streamed weight block across more compute as batch grows;
            per-step transferred bytes shrink by ``1 + slope*(batch-1)``.
        overlap_efficiency: Fraction of compute time that successfully
            hides concurrent PCIe transfer (double-buffered blocks).
        host_attention_bw: Effective host-memory bandwidth for CPU-side
            attention over the offloaded KV cache, bytes/s. FlexGen's CPU
            attention kernels are far from STREAM-optimal.
    """

    weight_residency_fraction: float = 0.35
    kv_gpu_capacity_fraction: float = 0.20
    pcie_efficiency: float = 0.35
    zigzag_amortization_slope: float = 0.21
    overlap_efficiency: float = 0.9
    host_attention_bw: float = 50e9

    def __post_init__(self) -> None:
        for name in ("weight_residency_fraction", "kv_gpu_capacity_fraction",
                     "pcie_efficiency", "overlap_efficiency"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        require_positive(self.zigzag_amortization_slope + 1.0,
                         "zigzag_amortization_slope + 1")
        require_positive(self.host_attention_bw, "host_attention_bw")


DEFAULT_OFFLOAD_CALIBRATION = OffloadCalibration()


@dataclasses.dataclass(frozen=True)
class Placement:
    """Resolved data placement for one (model, request, GPU) triple.

    Attributes:
        resident_weight_bytes: Weights pinned in GPU memory.
        streamed_weight_bytes: Weights streamed over PCIe per full pass.
        kv_on_gpu: Whether the KV cache lives in GPU memory.
        kv_bytes_peak: Peak KV-cache size over the request.
    """

    resident_weight_bytes: float
    streamed_weight_bytes: float
    kv_on_gpu: bool
    kv_bytes_peak: float


def hybrid_streamed_weight_bytes(
        weight_bytes_total: float, gpu: Platform,
        calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION
) -> float:
    """Weight bytes a hybrid prefill must stream over PCIe per pass.

    The CPU–GPU hybrid backend keeps a resident fraction of the weights
    pinned in GPU memory across requests (the same residency budget the
    offload policy uses) and streams the remainder each prefill. Unlike
    :func:`make_placement` there is no KV deduction: the KV cache never
    stays on the GPU — decode runs on the CPU, so prompt K/V is handed
    off to host memory every pass.
    """
    if not gpu.is_gpu:
        raise ValueError(f"{gpu.name} is not a GPU")
    budget = gpu.memory_capacity * calibration.weight_residency_fraction
    return max(0.0, weight_bytes_total - budget)


def make_placement(model: ModelConfig, request: InferenceRequest,
                   gpu: Platform,
                   calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION) -> Placement:
    """Resolve the GPU/CPU split for an offloaded request.

    Sized on the plain BF16 base the offload engine prices with.
    """
    if not gpu.is_gpu:
        raise ValueError(f"{gpu.name} is not a GPU")
    base = BaselineBackend()
    weights = base.weight_bytes(model)
    kv_peak = (base.kv_bytes_per_token(model) * request.max_seq_len
               * request.batch_size)
    kv_on_gpu = kv_peak <= gpu.memory_capacity * calibration.kv_gpu_capacity_fraction
    weight_budget = gpu.memory_capacity * calibration.weight_residency_fraction
    if kv_on_gpu:
        weight_budget = max(0.0, weight_budget - kv_peak)
    resident = min(weights, weight_budget)
    return Placement(
        resident_weight_bytes=resident,
        streamed_weight_bytes=weights - resident,
        kv_on_gpu=kv_on_gpu,
        kv_bytes_peak=kv_peak,
    )
