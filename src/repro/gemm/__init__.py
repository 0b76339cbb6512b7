"""GEMM cost model: roofline primitives, efficiency curves, simulator."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".efficiency": ("EfficiencyCurve", "GPU_CURVE", "MATRIX_CURVE",
                    "VECTOR_CURVE", "gemm_efficiency"),
    ".roofline": ("attainable_flops", "compute_time", "memory_time",
                  "op_time"),
    ".simulator": ("GemmSimulator", "GemmTiming"),
})
