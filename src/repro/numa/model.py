"""A CPU run's placement: memory mode, clustering and core count.

:class:`NumaModel` is the one model of where a CPU run's threads and
pages sit (Figs. 13-16). It reduces a placement to the quantities the
operator executor and the counter model consume:

* ``effective_bandwidth(footprint)`` — sustained bytes/s the inference
  kernels see for a given working set at this core count;
* ``compute_factor`` — multiplier on the platform's one-socket peak
  FLOPS;
* ``capacity_bytes`` — software-visible memory over the sockets the run
  spans;
* ``remote_access_fraction`` — share of memory accesses served by a
  non-local NUMA domain (feeds the remote-LLC-access counter), and
  ``upi_traffic_fraction()`` — the share that crosses UPI.

Mechanisms modeled, with calibration constants documented in
:class:`NumaCalibration`:

* **Flat mode** fills HBM first and spills to DDR (harmonic blend over the
  placed bytes — see :meth:`repro.hardware.memory.MemorySystem.blended_bandwidth`).
* **Cache mode** treats HBM as a memory-side cache of DDR. Streaming LLM
  weights are cache-friendly when the footprint fits in HBM, but the
  tag-check/fill path costs a few percent of bandwidth, and once the
  footprint exceeds HBM the hit rate collapses toward
  ``hbm_capacity / footprint`` (thrashing stream).
* **SNC-4** without NUMA-aware allocation spreads pages round-robin across
  the four sub-node memory controllers while threads are bound per
  cluster, so ~3/4 of accesses are sub-node-remote, paying a mesh
  bandwidth/latency tax (the paper: "when data allocation is not properly
  managed, performance can degrade due to inefficient memory access and
  increased inter-core communication").
* **HBM-only** caps capacity at HBM but runs at full HBM bandwidth.
* **Core count** (Figs. 14/16), normalized to one full socket (48 cores
  on SPR), the reference the platform specs describe:

  1. Peak FLOPS grow linearly in cores, but synchronization/imbalance
     overhead grows too: per-core efficiency ``e(n) = 1 / (1 + a(n-1))``.
     The paper's 65.9 % prefill latency reduction from 12 -> 48 cores
     (2.93x for 4x cores) calibrates ``a``.
  2. A few cores cannot issue enough outstanding misses to saturate
     memory, so bandwidth follows a saturating curve in core count. The
     decode-phase 54.6 % reduction (2.2x) from 12 -> 48 — decode being
     memory-bound — calibrates the half-point.
  3. Past one socket, threads span both sockets: local bandwidth and
     capacity double, but a share of accesses crosses UPI, whose
     bandwidth is far below HBM. This is why 96 cores lose to 48 (Key
     Finding #3) and why Fig. 16 shows UPI utilization spiking at 96.
"""

import dataclasses
from typing import Optional

from repro.hardware.interconnect import upi_link
from repro.hardware.memory import MemorySystem
from repro.hardware.platform import Platform
from repro.numa.modes import ClusteringMode, MemoryMode, NumaConfig
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class NumaCalibration:
    """Calibration constants for the NUMA behaviour model.

    Attributes:
        cache_mode_overhead: Bandwidth fraction lost to the memory-side
            cache's tag/fill path even at a 100 % hit rate.
        cache_hit_rate_resident: HBM-cache hit rate when the working set
            fits in HBM (streaming weights re-fill predictably but conflict
            misses remain).
        snc_remote_fraction: Fraction of accesses that land on a remote
            sub-NUMA cluster when allocation is not NUMA-aware (3 of 4
            clusters are remote under round-robin page placement).
        snc_remote_bw_penalty: Relative bandwidth of a sub-node-remote
            access vs. a local one (mesh hop + controller contention).
        numa_aware_remote_fraction: Residual share of accesses that still
            leave their domain when placement is deliberate: NUMA-aware
            allocation across SNC clusters (Section VI), and first-touch
            allocation when threads span both sockets (the share that
            crosses UPI).
        parallel_overhead: ``a`` in ``e(n) = 1/(1 + a*(n-1))``. The default
            0.0116 gives e(48)/e(12) = 0.73, matching the paper's 2.93x
            prefill speedup for 4x cores.
        bw_half_cores: Core count at which the bandwidth-saturation curve
            reaches half its asymptote. 33 gives bw(12)/bw(48) = 0.45,
            i.e. the paper's 2.2x memory-bound decode gain from 12 -> 48
            cores (54.6% TPOT reduction).
    """

    cache_mode_overhead: float = 0.06
    cache_hit_rate_resident: float = 0.94
    snc_remote_fraction: float = 0.75
    snc_remote_bw_penalty: float = 0.72
    numa_aware_remote_fraction: float = 0.15
    parallel_overhead: float = 0.0116
    bw_half_cores: float = 33.0

    def __post_init__(self) -> None:
        for name in ("cache_mode_overhead", "cache_hit_rate_resident",
                     "snc_remote_fraction", "snc_remote_bw_penalty",
                     "numa_aware_remote_fraction"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        require_positive(self.parallel_overhead, "parallel_overhead")
        require_positive(self.bw_half_cores, "bw_half_cores")


DEFAULT_NUMA_CALIBRATION = NumaCalibration()

#: Remote share in Quadrant mode: residual cross-socket noise.
QUAD_REMOTE_FRACTION = 0.03


def hot_cold_effective_bandwidth(hot_traffic_fraction: float,
                                 local_bw: float,
                                 remote_bw: float) -> float:
    """Effective bandwidth when hot traffic is pinned to fast memory.

    *hot_traffic_fraction* of all accesses go to data placed in the fast
    tier (HBM / local DDR); the rest reach the slow tier (remote DDR).
    Time per byte blends harmonically — concentrating *traffic* (not
    bytes) on the fast tier is what Section VI's hot/cold placement
    buys.
    """
    if not 0 <= hot_traffic_fraction <= 1:
        raise ValueError("hot_traffic_fraction must be in [0, 1]")
    require_positive(local_bw, "local_bw")
    require_positive(remote_bw, "remote_bw")
    time_per_byte = (hot_traffic_fraction / local_bw
                     + (1.0 - hot_traffic_fraction) / remote_bw)
    return 1.0 / time_per_byte


class NumaModel:
    """Evaluates one placement of a run on a CPU platform.

    Args:
        platform: CPU platform (must expose HBM + DDR tiers for cache/flat
            modes to differ; a DDR-only platform like ICL degenerates to
            flat behaviour).
        config: Memory x clustering configuration.
        calibration: Behaviour constants.
        numa_aware: Whether software performs NUMA-aware placement
            (Section VI's proposed optimization); lowers the SNC remote
            fraction to the calibrated residual.
        cores: Cores the run's threads use; ``None`` = one full socket
            (the paper's tuned setting, 48 on SPR / 32 on ICL).

    Raises:
        ValueError: On a GPU, or if *cores* is below 1 or above the
            platform's core total.
    """

    def __init__(self, platform: Platform, config: NumaConfig,
                 calibration: NumaCalibration = DEFAULT_NUMA_CALIBRATION,
                 numa_aware: bool = False, cores: Optional[int] = None):
        if not platform.is_cpu:
            if cores is not None:
                raise ValueError(
                    f"a core count (cores={cores}) applies to CPUs, got "
                    f"{platform.name}")
            raise ValueError(f"NUMA model applies to CPUs, got {platform.name}")
        topology = platform.topology
        if cores is None:
            cores = topology.cores_per_socket
        require_positive(cores, "cores")
        if cores > topology.total_cores:
            raise ValueError(
                f"{platform.name} has {topology.total_cores} cores; "
                f"requested {cores}")
        self.platform = platform
        self.config = config
        self.calibration = calibration
        self.numa_aware = numa_aware
        self.cores = cores
        self._reference_cores = topology.cores_per_socket

    # -- capacity ---------------------------------------------------------

    @property
    def capacity_bytes(self) -> float:
        """Software-visible memory capacity under this configuration.

        Per socket, HBM-only exposes just HBM; cache mode exposes only DDR
        (HBM is the cache, not addressable); flat exposes both. On a
        DDR-only platform (ICL) every mode degenerates to the DRAM
        capacity. A run whose cores span sockets sees every spanned
        socket's memory.
        """
        return self._socket_capacity() * self.sockets

    def _socket_capacity(self) -> float:
        hbm, ddr = self._tier_split()
        if not self._has_hbm:
            return ddr[0]
        if self.config.memory_mode is MemoryMode.HBM_ONLY:
            return hbm[0]
        if self.config.memory_mode is MemoryMode.CACHE:
            return ddr[0]
        return hbm[0] + ddr[0]

    # -- bandwidth --------------------------------------------------------

    def effective_bandwidth(self, footprint_bytes: float) -> float:
        """Sustained kernel bandwidth (bytes/s) for *footprint_bytes*.

        Includes the platform's kernel-level stream efficiency and the
        core count's :attr:`bandwidth_factor`, so the result plugs
        directly into the roofline memory leg.
        """
        require_positive(footprint_bytes, "footprint_bytes")
        raw = self._mode_bandwidth(footprint_bytes)
        raw *= self._clustering_factor()
        return raw * self.platform.stream_efficiency * self.bandwidth_factor

    def _mode_bandwidth(self, footprint: float) -> float:
        hbm, ddr = self._tier_split()
        hbm_cap, hbm_bw = hbm
        ddr_cap, ddr_bw = ddr
        mode = self.config.memory_mode
        if mode is MemoryMode.HBM_ONLY:
            if footprint > hbm_cap:
                raise ValueError(
                    f"footprint {footprint:.3g} B exceeds HBM-only capacity "
                    f"{hbm_cap:.3g} B on {self.platform.name}")
            return hbm_bw
        if mode is MemoryMode.FLAT:
            return MemorySystem(self.platform.memory.tiers).blended_bandwidth(footprint)
        # Cache mode: hit rate depends on residency; bandwidth is the
        # hit/miss blend (a miss pays the DDR fill).
        if footprint <= hbm_cap:
            hit = self.calibration.cache_hit_rate_resident
        else:
            hit = self.calibration.cache_hit_rate_resident * (hbm_cap / footprint)
        hit_bw = hbm_bw * (1.0 - self.calibration.cache_mode_overhead)
        time_per_byte = hit / hit_bw + (1.0 - hit) / ddr_bw
        return 1.0 / time_per_byte

    def hot_cold_bandwidth(self, hot_traffic_fraction: float) -> float:
        """Sustained bandwidth under hot/cold weight placement.

        Section VI's second optimization: hot data (activations, KV,
        frequently-streamed weights) pinned to the HBM tier serves
        *hot_traffic_fraction* of accesses at HBM bandwidth; cold data
        spills to DDR. On a DDR-only platform the tiers coincide and
        this degenerates to the flat bandwidth. Clustering penalties,
        stream efficiency and the core count apply exactly as in
        :meth:`effective_bandwidth`, so the result plugs into the same
        roofline memory leg.
        """
        hbm, ddr = self._tier_split()
        raw = hot_cold_effective_bandwidth(hot_traffic_fraction,
                                           hbm[1], ddr[1])
        raw *= self._clustering_factor()
        return raw * self.platform.stream_efficiency * self.bandwidth_factor

    def _clustering_factor(self) -> float:
        if self.config.clustering_mode is ClusteringMode.QUADRANT:
            return 1.0
        remote = self.remote_access_fraction
        penalty = self.calibration.snc_remote_bw_penalty
        # Time-weighted blend: remote accesses run at penalized bandwidth.
        return 1.0 / ((1.0 - remote) + remote / penalty)

    # -- core count -------------------------------------------------------

    def _parallel_efficiency(self, n: int) -> float:
        return 1.0 / (1.0 + self.calibration.parallel_overhead * (n - 1))

    @property
    def compute_factor(self) -> float:
        """Multiplier on the platform's (single-socket) peak FLOPS."""
        ref = self._reference_cores
        useful = self.cores * self._parallel_efficiency(self.cores)
        reference = ref * self._parallel_efficiency(ref)
        return useful / reference

    def _saturation(self, n: int) -> float:
        half = self.calibration.bw_half_cores
        return n / (n + half)

    @property
    def bandwidth_factor(self) -> float:
        """Multiplier on the one-socket sustained bandwidth.

        Within one socket: pure saturation curve, normalized at the
        reference core count. Across sockets: every socket's bandwidth
        is available, but the calibrated remote share is bottlenecked by
        UPI's effective bandwidth, which usually *reduces* the blended
        figure below a single saturated socket.
        """
        ref = self._reference_cores
        base = self._saturation(min(self.cores, ref)) / self._saturation(ref)
        if not self.spans_sockets:
            return base
        local_bw = self.sockets * self.platform.peak_memory_bandwidth
        remote = self.upi_traffic_fraction()
        upi_bw = upi_link().effective_bw
        blended = 1.0 / ((1.0 - remote) / local_bw + remote / upi_bw)
        return blended / self.platform.peak_memory_bandwidth

    @property
    def spans_sockets(self) -> bool:
        """Whether the core count needs more than one socket."""
        return self.cores > self._reference_cores

    @property
    def sockets(self) -> int:
        """Sockets the run's threads span."""
        return -(-self.cores // self._reference_cores)

    # -- counters ---------------------------------------------------------

    def upi_traffic_fraction(self) -> float:
        """Fraction of memory traffic crossing UPI (0 within one socket)."""
        if not self.spans_sockets:
            return 0.0
        return self.calibration.numa_aware_remote_fraction

    @property
    def remote_access_fraction(self) -> float:
        """Fraction of accesses served by a remote NUMA domain."""
        if self.config.clustering_mode is ClusteringMode.QUADRANT:
            return QUAD_REMOTE_FRACTION
        if self.numa_aware:
            return self.calibration.numa_aware_remote_fraction
        return self.calibration.snc_remote_fraction

    # -- helpers ----------------------------------------------------------

    @property
    def _has_hbm(self) -> bool:
        """Whether the platform exposes a distinct HBM tier."""
        return any(tier.name.upper().startswith("HBM")
                   for tier in self.platform.memory.tiers)

    def _tier_split(self):
        """(capacity, bandwidth) for the HBM tier and the DDR tier."""
        hbm = (0.0, 0.0)
        ddr = (0.0, 0.0)
        for tier in self.platform.memory.tiers:
            if tier.name.upper().startswith("HBM"):
                hbm = (tier.capacity_bytes, tier.sustained_bw)
            else:
                ddr = (tier.capacity_bytes, tier.sustained_bw)
        if hbm == (0.0, 0.0):
            # DDR-only platform (ICL): flat/cache/hbm distinctions vanish.
            hbm = ddr
        return hbm, ddr
