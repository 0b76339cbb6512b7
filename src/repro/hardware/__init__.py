"""Hardware substrate: datatypes, compute engines, caches, memory, platforms.

This package encodes the paper's Table I/II testbed as composable models —
the simulator's equivalent of racking the servers.
"""

from repro.hardware.caches import (
    CACHE_LINE_BYTES,
    CacheHierarchy,
    CacheLevel,
)
from repro.hardware.compute import (
    ComputeEngine,
    EngineKind,
    TileShape,
    tiles_needed,
)
from repro.hardware.datatypes import DType, parse_dtype
from repro.hardware.interconnect import (
    Interconnect,
    nvlink_c2c,
    pcie_gen4_x16,
    pcie_gen5_x16,
    upi_link,
)
from repro.hardware.memory import (
    MemorySystem,
    MemoryTechnology,
    MemoryTier,
)
from repro.hardware.platform import CPUTopology, Platform, PlatformKind
from repro.hardware.future import scaled_spr
from repro.hardware.registry import (
    AMX_TILE_BF16,
    all_platforms,
    get_platform,
)

__all__ = [
    "AMX_TILE_BF16",
    "CACHE_LINE_BYTES",
    "CPUTopology",
    "CacheHierarchy",
    "CacheLevel",
    "ComputeEngine",
    "DType",
    "EngineKind",
    "Interconnect",
    "MemorySystem",
    "MemoryTechnology",
    "MemoryTier",
    "Platform",
    "PlatformKind",
    "TileShape",
    "all_platforms",
    "get_platform",
    "nvlink_c2c",
    "parse_dtype",
    "scaled_spr",
    "pcie_gen4_x16",
    "pcie_gen5_x16",
    "tiles_needed",
    "upi_link",
]
