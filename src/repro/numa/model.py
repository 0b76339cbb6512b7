"""Effective memory behaviour under each NUMA configuration (Figs. 13/15).

The model reduces a configuration to two quantities the operator executor
consumes:

* ``effective_bandwidth(footprint)`` — sustained bytes/s the inference
  kernels see for a given working set, and
* ``remote_access_fraction`` — share of memory accesses served by a
  non-local NUMA domain (feeds the remote-LLC-access counter).

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
"""

import dataclasses

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
        numa_aware_remote_fraction: Residual remote fraction achievable
            with the hot/cold placement of Section VI.
    """

    cache_mode_overhead: float = 0.06
    cache_hit_rate_resident: float = 0.94
    snc_remote_fraction: float = 0.75
    snc_remote_bw_penalty: float = 0.72
    numa_aware_remote_fraction: float = 0.15

    def __post_init__(self) -> None:
        for name in ("cache_mode_overhead", "cache_hit_rate_resident",
                     "snc_remote_fraction", "snc_remote_bw_penalty",
                     "numa_aware_remote_fraction"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


DEFAULT_NUMA_CALIBRATION = NumaCalibration()


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
    """Evaluates one (platform, NumaConfig) pair.

    Args:
        platform: CPU platform (must expose HBM + DDR tiers for cache/flat
            modes to differ; a DDR-only platform like ICL degenerates to
            flat behaviour).
        config: Memory x clustering configuration.
        calibration: Behaviour constants.
        numa_aware: Whether software performs NUMA-aware placement
            (Section VI's proposed optimization); lowers the SNC remote
            fraction to the calibrated residual.
    """

    def __init__(self, platform: Platform, config: NumaConfig,
                 calibration: NumaCalibration = DEFAULT_NUMA_CALIBRATION,
                 numa_aware: bool = False):
        if not platform.is_cpu:
            raise ValueError(f"NUMA model applies to CPUs, got {platform.name}")
        self.platform = platform
        self.config = config
        self.calibration = calibration
        self.numa_aware = numa_aware

    # -- capacity ---------------------------------------------------------

    @property
    def capacity_bytes(self) -> float:
        """Software-visible memory capacity under this configuration.

        HBM-only exposes just HBM; cache mode exposes only DDR (HBM is the
        cache, not addressable); flat exposes both. On a DDR-only platform
        (ICL) every mode degenerates to the DRAM capacity.
        """
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

        Includes the platform's kernel-level stream efficiency, so the
        result plugs directly into the roofline memory leg.
        """
        require_positive(footprint_bytes, "footprint_bytes")
        raw = self._mode_bandwidth(footprint_bytes)
        raw *= self._clustering_factor()
        return raw * self.platform.stream_efficiency

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
        this degenerates to the flat bandwidth. Clustering penalties and
        stream efficiency apply exactly as in
        :meth:`effective_bandwidth`, so the result plugs into the same
        roofline memory leg.
        """
        hbm, ddr = self._tier_split()
        raw = hot_cold_effective_bandwidth(hot_traffic_fraction,
                                           hbm[1], ddr[1])
        raw *= self._clustering_factor()
        return raw * self.platform.stream_efficiency

    def _clustering_factor(self) -> float:
        if self.config.clustering_mode is ClusteringMode.QUADRANT:
            return 1.0
        remote = self.remote_access_fraction
        penalty = self.calibration.snc_remote_bw_penalty
        # Time-weighted blend: remote accesses run at penalized bandwidth.
        return 1.0 / ((1.0 - remote) + remote / penalty)

    # -- counters ---------------------------------------------------------

    @property
    def remote_access_fraction(self) -> float:
        """Fraction of accesses served by a remote NUMA domain."""
        if self.config.clustering_mode is ClusteringMode.QUADRANT:
            return 0.03  # residual cross-socket noise even in quad mode
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
