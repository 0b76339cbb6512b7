"""Compute-engine models: vector units, matrix engines, and GPU tensor cores.

A :class:`ComputeEngine` captures the *peak* dense-math capability of a
platform for each supported data type, plus the microarchitectural facts the
GEMM efficiency model needs (tile shapes for matrix engines, SIMD width for
vector units). Peak numbers come straight from the paper's Table I/II:

* ICL Xeon 8352Y — 18.0 BF16 TFLOPS via AVX-512,
* SPR Max 9468  — 25.6 BF16 TFLOPS via AVX-512 or 206.4 via AMX,
* A100          — 312 BF16 TFLOPS (dense), H100 — 756 BF16 TFLOPS (dense).
"""

import dataclasses
import enum
from typing import Dict, Optional, Tuple

from repro.hardware.datatypes import DType
from repro.utils.validation import require_positive


class EngineKind(enum.Enum):
    """Class of compute engine; selects the GEMM efficiency curve family."""

    VECTOR = "vector"          # SIMD FMA pipes (AVX-512, NEON, ...)
    MATRIX = "matrix"          # CPU matrix engines (Intel AMX tiles)
    GPU_TENSOR = "gpu_tensor"  # GPU tensor/matrix cores


@dataclasses.dataclass(frozen=True)
class TileShape:
    """Native tile dimensions (M, N, K) of a matrix engine.

    Intel AMX operates on 2-D tile registers of 16 rows x 64 bytes; a BF16
    ``TDPBF16PS`` multiply consumes A(16x32) * B(32x16), so the native tile
    is M=16, N=16, K=32 for BF16 (K=64 for INT8).
    """

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        require_positive(self.m, "tile m")
        require_positive(self.n, "tile n")
        require_positive(self.k, "tile k")


@dataclasses.dataclass(frozen=True)
class ComputeEngine:
    """Peak dense-compute capability of one execution engine.

    Attributes:
        name: Human-readable identifier ("AMX", "AVX-512", "TensorCore-H100").
        kind: Engine class (vector / matrix / GPU tensor).
        peak_flops: Map of dtype -> peak FLOP/s for the *whole platform
            allocation being modeled* (e.g. one socket's worth of cores).
        tile: Native tile shape for matrix engines; ``None`` for vector units.
        launch_overhead_s: Fixed per-kernel/per-operator software overhead.
            CPUs pay framework dispatch (~microseconds); GPUs pay kernel
            launch latency. This term dominates nothing but keeps tiny ops
            from simulating as free.
    """

    name: str
    kind: EngineKind
    peak_flops: Dict[DType, float]
    tile: Optional[TileShape] = None
    launch_overhead_s: float = 5e-6

    def __post_init__(self) -> None:
        if not self.peak_flops:
            raise ValueError(f"engine {self.name!r} declares no peak rates")
        for dtype, rate in self.peak_flops.items():
            require_positive(rate, f"{self.name} peak[{dtype}]")
        if self.kind is EngineKind.MATRIX and self.tile is None:
            raise ValueError(f"matrix engine {self.name!r} requires a tile shape")

    def supports(self, dtype: DType) -> bool:
        """Whether this engine has a native path for *dtype*."""
        return dtype in self.peak_flops

    def peak(self, dtype: DType) -> float:
        """Peak FLOP/s for *dtype*; raises ``KeyError`` if unsupported."""
        if dtype not in self.peak_flops:
            raise KeyError(f"{self.name} does not support {dtype}")
        return self.peak_flops[dtype]

    def scaled(self, factor: float) -> "ComputeEngine":
        """Return a same-named copy with all peak rates multiplied by *factor*.

        Used by the core-count scaling model: an engine spec describes a
        full 48-core socket; running on 12 cores scales peaks by 12/48
        (before parallel-efficiency losses, which are applied separately).
        """
        require_positive(factor, "scale factor")
        return dataclasses.replace(
            self,
            peak_flops={dt: rate * factor for dt, rate in self.peak_flops.items()},
        )


def tiles_needed(tile: TileShape, m: int, n: int, k: int) -> Tuple[int, int, int]:
    """Number of native tiles along each GEMM dimension (ceiling division).

    Matrix engines always execute whole tiles; a GEMM whose dimensions are
    not tile multiples wastes the padding lanes. The efficiency model uses
    this to charge tile-quantization overhead.
    """
    require_positive(m, "m")
    require_positive(n, "n")
    require_positive(k, "k")
    return (-(-m // tile.m), -(-n // tile.n), -(-k // tile.k))
