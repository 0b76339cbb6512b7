"""Hardware substrate: datatypes, compute engines, caches, memory, platforms.

This package encodes the paper's Table I/II testbed as composable models —
the simulator's equivalent of racking the servers.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".caches": ("CACHE_LINE_BYTES", "CacheHierarchy", "CacheLevel"),
    ".compute": ("ComputeEngine", "EngineKind", "TileShape", "tiles_needed"),
    ".datatypes": ("DType", "parse_dtype"),
    ".interconnect": ("Interconnect", "nvlink_c2c", "pcie_gen4_x16",
                      "pcie_gen5_x16", "upi_link"),
    ".memory": ("MemorySystem", "MemoryTechnology", "MemoryTier"),
    ".platform": ("CPUTopology", "Platform", "PlatformKind"),
    ".future": ("scaled_spr",),
    ".registry": ("AMX_TILE_BF16", "all_platforms", "get_platform"),
})
