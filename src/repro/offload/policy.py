"""Offloading placement policy (FlexGen-style, Section III / V).

When a model's inference footprint exceeds GPU memory, weights, KV cache,
and activations are split between GPU and CPU memory. The calibration
here (and :func:`repro.offload.engine.make_placement`, which applies it
per request) mirrors FlexGen's practical behaviour:

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

from repro.hardware.platform import Platform
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


def hybrid_streamed_weight_bytes(
        weight_bytes_total: float, gpu: Platform,
        calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION
) -> float:
    """Weight bytes a hybrid prefill must stream over PCIe per pass.

    The CPU–GPU hybrid backend keeps a resident fraction of the weights
    pinned in GPU memory across requests (the same residency budget the
    offload policy uses) and streams the remainder each prefill. Unlike
    :func:`repro.offload.engine.make_placement` there is no KV
    deduction: the KV cache never stays on the GPU — decode runs on the
    CPU, so prompt K/V is handed off to host memory every pass.
    """
    if not gpu.is_gpu:
        raise ValueError(f"{gpu.name} is not a GPU")
    budget = gpu.memory_capacity * calibration.weight_residency_fraction
    return max(0.0, weight_bytes_total - budget)
