"""Offloading-based LLM inference substrate (FlexGen substitute)."""

from repro.offload.engine import OffloadResult, OffloadSimulator
from repro.offload.policy import (
    DEFAULT_OFFLOAD_CALIBRATION,
    OffloadCalibration,
    Placement,
    make_placement,
)
from repro.offload.transfer import TransferModel, transfer_model_for
from repro.offload.zigzag import (
    amortization_factor,
    amortized_transfer_time,
    exposed_transfer_time,
)

__all__ = [
    "DEFAULT_OFFLOAD_CALIBRATION",
    "OffloadCalibration",
    "OffloadResult",
    "OffloadSimulator",
    "Placement",
    "TransferModel",
    "amortization_factor",
    "amortized_transfer_time",
    "exposed_transfer_time",
    "make_placement",
    "transfer_model_for",
]
