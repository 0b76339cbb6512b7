"""Memory-tier models: DDR4/DDR5 DRAM, on-package HBM, and GPU HBM.

Bandwidth figures are the *sustained* (STREAM-measured) values the paper
reports rather than datasheet peaks — Table I footnote 2 and Table II
footnote 4 both measure with STREAM:

* ICL DDR4 (1 socket):  156.2 GB/s
* SPR DDR5 (1 socket):  233.8 GB/s
* SPR HBM  (1 socket):  588.0 GB/s
* A100 HBM2e:          1299.9 GB/s
* H100 HBM3:           1754.4 GB/s
"""

import dataclasses
import enum
from typing import List, Optional

from repro.utils.validation import require_positive


class MemoryTechnology(enum.Enum):
    """Physical memory technology; drives default latency estimates."""

    DDR4 = "ddr4"
    DDR5 = "ddr5"
    HBM2E = "hbm2e"
    HBM3 = "hbm3"
    HBM_FLAT = "hbm"  # SPR Max on-package HBM2e


# Typical idle load-to-use latencies; only relative ordering matters for the
# model (HBM on SPR Max is *higher* latency than DDR5 despite its bandwidth).
_DEFAULT_LATENCY_NS = {
    MemoryTechnology.DDR4: 90.0,
    MemoryTechnology.DDR5: 110.0,
    MemoryTechnology.HBM_FLAT: 130.0,
    MemoryTechnology.HBM2E: 200.0,
    MemoryTechnology.HBM3: 180.0,
}


@dataclasses.dataclass(frozen=True)
class MemoryTier:
    """One addressable memory tier.

    Attributes:
        name: Identifier ("DDR5", "HBM", ...).
        technology: Physical technology.
        capacity_bytes: Capacity of the tier for the modeled allocation
            (e.g. one socket: 64 GB HBM on SPR Max).
        sustained_bw: STREAM-sustained bandwidth in bytes/s.
        latency_ns: Load-to-use latency; defaults by technology.
    """

    name: str
    technology: MemoryTechnology
    capacity_bytes: float
    sustained_bw: float
    latency_ns: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.capacity_bytes, f"{self.name} capacity")
        require_positive(self.sustained_bw, f"{self.name} bandwidth")
        if self.latency_ns is None:
            object.__setattr__(
                self, "latency_ns", _DEFAULT_LATENCY_NS[self.technology])
        require_positive(self.latency_ns, f"{self.name} latency")


@dataclasses.dataclass(frozen=True)
class MemorySystem:
    """The set of memory tiers attached to one platform allocation.

    Tiers are ordered fastest-first. ``blended_bandwidth`` models a working
    set spilling across tiers: the fastest tier serves as much of the
    footprint as it can hold and the remainder streams from the next tier;
    effective bandwidth is the footprint-weighted harmonic blend (time adds,
    not bandwidth).
    """

    tiers: List[MemoryTier]

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("memory system needs at least one tier")

    @property
    def total_capacity(self) -> float:
        """Sum of all tier capacities in bytes."""
        return sum(tier.capacity_bytes for tier in self.tiers)

    @property
    def fastest(self) -> MemoryTier:
        """The highest-bandwidth tier."""
        return max(self.tiers, key=lambda tier: tier.sustained_bw)

    def tier(self, name: str) -> MemoryTier:
        """Look up a tier by name."""
        for t in self.tiers:
            if t.name == name:
                return t
        raise KeyError(f"no memory tier named {name!r}")

    def blended_bandwidth(self, footprint_bytes: float) -> float:
        """Effective streaming bandwidth for a *footprint_bytes* working set.

        The allocator fills the fastest tier first (this matches the paper's
        flat-mode policy: "memory allocation prioritized HBM memory, with
        DDR memory being used only when the allocation exceeded 64GB").
        Reading the whole footprint once takes ``sum(part_i / bw_i)``
        seconds, so the blend is harmonic, weighted by placed bytes.
        """
        require_positive(footprint_bytes, "footprint_bytes")
        ordered = sorted(self.tiers, key=lambda t: t.sustained_bw, reverse=True)
        remaining = footprint_bytes
        total_time = 0.0
        for t in ordered:
            placed = min(remaining, t.capacity_bytes)
            if placed > 0:
                total_time += placed / t.sustained_bw
                remaining -= placed
            if remaining <= 0:
                break
        if remaining > 0:
            # Footprint exceeds all local capacity; the overflow must come
            # from elsewhere (remote socket) — callers model that penalty
            # explicitly, here we charge the slowest tier's bandwidth.
            slowest = min(self.tiers, key=lambda t: t.sustained_bw)
            total_time += remaining / slowest.sustained_bw
        return footprint_bytes / total_time
