"""GEMM timing/throughput simulator (regenerates Fig. 1).

:class:`GemmSimulator` prices a single GEMM on a platform: it picks the
best engine for the dtype, applies the dimension-dependent efficiency
curve, prices the memory leg of the roofline against the platform's
sustained bandwidth, and adds launch overhead. When a platform has several
engines (SPR: AVX-512 and AMX) the simulator evaluates each and takes the
fastest — matching IPEX/oneDNN dispatch, which falls back to AVX-512 for
shapes where AMX tiling does not pay off.
"""

import dataclasses
from typing import Optional

from repro.gemm.efficiency import gemm_efficiency
from repro.gemm.roofline import op_time
from repro.hardware.compute import ComputeEngine
from repro.hardware.datatypes import DType
from repro.hardware.platform import Platform
from repro.utils.units import TFLOPS
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class GemmTiming:
    """Result of pricing one GEMM.

    Attributes:
        time_s: Wall time in (simulated) seconds.
        engine: Engine that executed the GEMM.
        efficiency: Compute efficiency applied.
        flops: FLOPs performed (2*m*n*k).
        bytes_moved: Memory traffic priced (A + B + C, one pass each).
        memory_bound: Whether the memory leg dominated.
    """

    time_s: float
    engine: ComputeEngine
    efficiency: float
    flops: float
    bytes_moved: float
    memory_bound: bool

    @property
    def achieved_tflops(self) -> float:
        """Achieved throughput in TFLOP/s."""
        return self.flops / self.time_s / TFLOPS


#: The paper's dtype (Fig. 1 sweeps BF16 GEMMs).
GEMM_DTYPE = DType.BF16


class GemmSimulator:
    """Prices BF16 GEMMs on one platform at its sustained bandwidth.

    Args:
        platform: Target platform.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self._bandwidth = (platform.peak_memory_bandwidth
                           * platform.stream_efficiency)
        self._engines = platform.engines_for(GEMM_DTYPE)

    def gemm_bytes(self, m: int, n: int, k: int) -> float:
        """Memory traffic of one GEMM: read A (m*k) and B (k*n), write C."""
        return float(m * k + k * n + m * n) * GEMM_DTYPE.nbytes

    def time(self, m: int, n: int, k: int) -> GemmTiming:
        """Price an m x n x k GEMM; returns the fastest engine's timing."""
        require_positive(m, "m")
        require_positive(n, "n")
        require_positive(k, "k")
        flops = 2.0 * m * n * k
        nbytes = self.gemm_bytes(m, n, k)
        best: Optional[GemmTiming] = None
        for engine in self._engines:
            eff = gemm_efficiency(engine, m, n, k)
            peak = engine.peak(GEMM_DTYPE)
            total = op_time(flops, nbytes, peak, self._bandwidth, eff,
                            overhead=engine.launch_overhead_s)
            mem_leg = nbytes / self._bandwidth
            cmp_leg = flops / (peak * eff)
            timing = GemmTiming(
                time_s=total,
                engine=engine,
                efficiency=eff,
                flops=flops,
                bytes_moved=nbytes,
                memory_bound=mem_leg >= cmp_leg,
            )
            if best is None or timing.time_s < best.time_s:
                best = timing
        assert best is not None  # _engines is non-empty
        return best

    def throughput_tflops(self, m: int, n: int, k: int) -> float:
        """Achieved TFLOP/s for a standalone m x n x k GEMM (Fig. 1's y-axis)."""
        return self.time(m, n, k).achieved_tflops
