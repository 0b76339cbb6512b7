"""Calibration-target framework: the paper anchors the model must hit."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".targets": ("CalibrationResult", "CalibrationTarget", "all_targets",
                 "check_all_targets"),
})
