"""Core-count scaling substrate."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".cores": ("DEFAULT_SCALING_CALIBRATION", "EVALUATED_CORE_COUNTS",
               "CoreScalingModel", "ScalingCalibration"),
})
