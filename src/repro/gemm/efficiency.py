"""Dimension-dependent GEMM efficiency curves per engine class.

Peak TFLOPS are only reached by large, well-shaped GEMMs. Small or skinny
matrices lose throughput to:

* **tile quantization** — matrix engines (AMX) execute whole 16x16x32
  tiles; a GEMM with m=4 wastes 12 of 16 tile rows;
* **pipeline ramp** — each dimension must be long enough to hide operand
  load latency and amortize tile/fragment setup;
* **parallelization grain** — tiny GEMMs cannot fill all cores/SMs.

The curve family is ``eff = ceiling * ramp(m) * ramp(n) * ramp(k) * tile_util``
with ``ramp(x) = x / (x + x_half)``, a saturating form whose half-point
constants are the calibration knobs. Values are chosen so the simulated
platforms land inside the paper's reported speedup bands (DESIGN.md §5) and
produce Fig. 1's ordering: H100 > A100 > SPR-AMX >> ICL-AVX512 at large
sizes, with the CPU gap narrowing at small sizes where launch overheads
hurt GPUs.
"""

import dataclasses
import functools
from typing import Optional, Tuple

from repro.hardware.compute import ComputeEngine, EngineKind, TileShape, tiles_needed
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class EfficiencyCurve:
    """Saturating efficiency curve for one engine class.

    Attributes:
        ceiling: Efficiency reached by asymptotically large GEMMs.
        m_half, n_half, k_half: Dimension at which each ramp reaches 50 %
            of its asymptote (smaller = faster ramp).
    """

    ceiling: float
    m_half: float
    n_half: float
    k_half: float

    def __post_init__(self) -> None:
        if not 0 < self.ceiling <= 1:
            raise ValueError(f"ceiling must be in (0, 1], got {self.ceiling}")
        for name in ("m_half", "n_half", "k_half"):
            require_positive(getattr(self, name), name)

    def ramp(self, value: float, half: float) -> float:
        """Saturating ramp: 0 at 0, 0.5 at *half*, -> 1 as value grows."""
        return value / (value + half)

    def evaluate(self, m: int, n: int, k: int) -> float:
        """Raw curve value (before tile quantization)."""
        return (self.ceiling
                * self.ramp(m, self.m_half)
                * self.ramp(n, self.n_half)
                * self.ramp(k, self.k_half))


# Vector units reach a high fraction of their (modest) peak quickly: FMA
# pipes have no tile-shape constraints, only cache blocking.
VECTOR_CURVE = EfficiencyCurve(ceiling=0.88, m_half=8.0, n_half=48.0, k_half=48.0)

# AMX needs large tiles resident and big K to amortize tile loads; skinny
# GEMMs fall back toward vector-like throughput (handled by the caller
# taking the best engine — at m=1 AVX-512 often wins).
MATRIX_CURVE = EfficiencyCurve(ceiling=0.78, m_half=28.0, n_half=192.0, k_half=192.0)

# GPU tensor cores: high ceiling but large half-points — small GEMMs cannot
# fill 100+ SMs, which is why Fig. 1's GPU curves sag at small dimensions.
GPU_CURVE = EfficiencyCurve(ceiling=0.72, m_half=96.0, n_half=384.0, k_half=384.0)

_CURVES = {
    EngineKind.VECTOR.value: VECTOR_CURVE,
    EngineKind.MATRIX.value: MATRIX_CURVE,
    EngineKind.GPU_TENSOR.value: GPU_CURVE,
}


def curve_key(engine: ComputeEngine) -> Tuple[str, Optional[Tuple[int, int, int]]]:
    """*engine*'s kind and tile shape as a string and an int triple: the
    efficiency memo's key, which hashes in C (the enum and the tile
    dataclass would hash in Python on every lookup)."""
    tile = engine.tile
    return (engine.kind.value,
            None if tile is None else (tile.m, tile.n, tile.k))


@functools.lru_cache(maxsize=131072)
def _gemm_efficiency_cached(kind: str, tile: Optional[Tuple[int, int, int]],
                            m: int, n: int, k: int) -> float:
    """Memoized curve evaluation, keyed by :func:`curve_key` and the dims.

    Sweeps re-issue identical GEMM shapes thousands of times (every decode
    step of every batch/model cell shares projections and FFN shapes), so
    this cache removes the dominant repeated arithmetic from pricing.
    """
    curve = _CURVES[kind]
    if tile is not None:
        shape = TileShape(*tile)
        tm, tn, tk = tiles_needed(shape, m, n, k)
        padded_m, padded_n, padded_k = tm * shape.m, tn * shape.n, tk * shape.k
        ramp_dims = (padded_m, padded_n, padded_k)
        util = (m * n * k) / (padded_m * padded_n * padded_k)
    else:
        ramp_dims = (m, n, k)
        util = 1.0
    eff = curve.evaluate(*ramp_dims) * util
    return max(eff, 1e-4)


def gemm_efficiency(engine: ComputeEngine, m: int, n: int, k: int) -> float:
    """Fraction of *engine*'s peak achieved by an m x n x k GEMM.

    For matrix engines the ramp is evaluated at the *tile-padded*
    dimensions: the hardware executes whole tiles, so execution time is
    constant within one padded block and steps up across blocks. Combined
    with the tile-utilization factor this makes simulated GEMM time
    monotone non-decreasing in every dimension — the physical invariant.

    Results are memoized (see :func:`clear_gemm_efficiency_cache`).
    Always returns a value in (0, 1].
    """
    require_positive(m, "m")
    require_positive(n, "n")
    require_positive(k, "k")
    return _gemm_efficiency_cached(*curve_key(engine), m, n, k)


def clear_gemm_efficiency_cache() -> None:
    """Drop all memoized efficiency values (for calibration-tweaking tests)."""
    _gemm_efficiency_cached.cache_clear()
