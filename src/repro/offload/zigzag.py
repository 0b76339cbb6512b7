"""FlexGen zig-zag block scheduling model (Section V-B, Fig. 18).

FlexGen traverses the (layer x batch-block) grid in a zig-zag order so a
weight block fetched over PCIe is reused by multiple micro-batches before
being evicted. Two consequences, both visible in the paper:

* per-step *transferred* bytes shrink as batch size grows — modeled as an
  amortization factor ``1 + slope * (batch - 1)``;
* transfers are double-buffered against compute, so a calibrated fraction
  of compute time hides transfer time.

The paper: "FlexGen's zig-zag block scheduling technique, which overlaps
data transfer with computation, reduces the time spent on data loading via
the PCIe bus as the batch size increases."
"""

from repro.offload.policy import DEFAULT_OFFLOAD_CALIBRATION, OffloadCalibration
from repro.utils.validation import require_positive


def amortization_factor(batch_size: int,
                        calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION) -> float:
    """How many times one streamed weight block is reused per decode step."""
    require_positive(batch_size, "batch_size")
    return 1.0 + calibration.zigzag_amortization_slope * (batch_size - 1)


def amortized_transfer_time(raw_transfer_s: float, batch_size: int,
                            calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION) -> float:
    """Per-step transfer time after zig-zag reuse across the batch."""
    if raw_transfer_s < 0:
        raise ValueError(f"raw_transfer_s must be >= 0, got {raw_transfer_s}")
    return raw_transfer_s / amortization_factor(batch_size, calibration)


def exposed_transfer_time(transfer_s: float, compute_s: float,
                          calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION) -> float:
    """Transfer time left on the critical path after overlap with compute.

    Double buffering hides up to ``overlap_efficiency * compute_s`` of the
    transfer; the remainder stalls the GPU.
    """
    if transfer_s < 0 or compute_s < 0:
        raise ValueError("times must be >= 0")
    hidden = calibration.overlap_efficiency * compute_s
    return max(0.0, transfer_s - hidden)
