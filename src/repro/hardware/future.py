"""Forward-looking CPU what-ifs: what would close the gap to GPUs?

The paper closes by arguing CPUs are becoming credible inference engines.
The natural follow-up: which axis — matrix throughput or memory
bandwidth — must the *next* CPU generation grow to close the in-memory
gap to an H100? These builders produce hypothetical SPR successors with
scaled AMX throughput and/or scaled memory bandwidth (MCR-DIMM /
next-gen-HBM class numbers), so the question becomes a sweep.
"""

import dataclasses

from repro.hardware.compute import ComputeEngine, EngineKind
from repro.hardware.memory import MemorySystem, MemoryTier
from repro.hardware.platform import Platform
from repro.hardware.registry import get_platform
from repro.utils.validation import require_positive


def scaled_spr(compute_scale: float = 1.0,
               bandwidth_scale: float = 1.0) -> Platform:
    """An SPR-Max successor with scaled AMX peak and/or memory bandwidth.

    ``compute_scale`` multiplies every engine's peaks (process/frequency/
    tile-count growth); ``bandwidth_scale`` multiplies every memory tier's
    sustained bandwidth (MCR DIMMs, faster HBM). Capacities are unchanged.
    """
    require_positive(compute_scale, "compute_scale")
    require_positive(bandwidth_scale, "bandwidth_scale")
    spr = get_platform("spr")
    engines = [engine.scaled(compute_scale) for engine in spr.engines]
    tiers = [dataclasses.replace(
        tier, sustained_bw=tier.sustained_bw * bandwidth_scale)
        for tier in spr.memory.tiers]
    label = f"SPR-next(c{compute_scale:g}x,b{bandwidth_scale:g}x)"
    return dataclasses.replace(
        spr, name=label, engines=engines, memory=MemorySystem(tiers))
