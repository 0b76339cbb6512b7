"""Cache-hierarchy description.

The paper reports LLC misses per kilo-instruction (MPKI) as a key counter
(Figs. 11, 12, 15, 16); :mod:`repro.perfcounters.collector` derives them
from a run's traffic and the platform's LLC capacity.
"""

import dataclasses
from typing import List

from repro.utils.validation import require_positive

CACHE_LINE_BYTES = 64


@dataclasses.dataclass(frozen=True)
class CacheLevel:
    """One level of the cache hierarchy.

    Attributes:
        name: "L1D", "L2", "L3", ...
        capacity_bytes: Total capacity at this level. For private caches this
            is the per-core capacity times the core count of the modeled
            allocation; for shared caches the shared capacity.
        shared: Whether the level is shared across all cores in the socket.
    """

    name: str
    capacity_bytes: float
    shared: bool
    #: Every modeled cache has the same line size.
    line_bytes = CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        require_positive(self.capacity_bytes, f"{self.name} capacity")


@dataclasses.dataclass(frozen=True)
class CacheHierarchy:
    """Ordered cache levels, L1 first."""

    levels: List[CacheLevel]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("cache hierarchy must contain at least one level")

    @property
    def llc(self) -> CacheLevel:
        """The last-level cache."""
        return self.levels[-1]
