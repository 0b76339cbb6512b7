"""Offloading-based LLM inference substrate (FlexGen substitute)."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".engine": ("OffloadResult", "OffloadSimulator", "Placement",
                "make_placement"),
    ".policy": ("DEFAULT_OFFLOAD_CALIBRATION", "OffloadCalibration"),
    ".transfer": ("TransferModel", "transfer_model_for"),
    ".zigzag": ("amortization_factor", "amortized_transfer_time",
                "exposed_transfer_time"),
})
