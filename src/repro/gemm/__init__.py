"""GEMM cost model: roofline primitives, efficiency curves, simulator."""

from repro.gemm.efficiency import (
    EfficiencyCurve,
    GPU_CURVE,
    MATRIX_CURVE,
    VECTOR_CURVE,
    gemm_efficiency,
)
from repro.gemm.roofline import (
    attainable_flops,
    compute_time,
    memory_time,
    op_time,
)
from repro.gemm.simulator import GemmSimulator, GemmTiming

__all__ = [
    "EfficiencyCurve",
    "GPU_CURVE",
    "GemmSimulator",
    "GemmTiming",
    "MATRIX_CURVE",
    "VECTOR_CURVE",
    "attainable_flops",
    "compute_time",
    "gemm_efficiency",
    "memory_time",
    "op_time",
]
