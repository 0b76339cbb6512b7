"""SPR Max memory and clustering modes (Section II-E).

The paper evaluates four combinations on a DDR5-equipped SPR Max server:

* memory mode — **Flat** (HBM and DDR as separate NUMA nodes, software
  places data, HBM filled first) or **Cache** (HBM is a transparent
  memory-side cache in front of DDR); **HBM-only** exists but is excluded
  because the server has DDR5 installed;
* clustering mode — **Quadrant** (one NUMA node per socket) or **SNC-4**
  (four sub-NUMA clusters per socket).

:class:`NumaConfig` names one combination; the paper's labels are
``quad_cache``, ``quad_flat``, ``snc_cache``, ``snc_flat``.
"""

import dataclasses
import enum
from typing import List


class MemoryMode(enum.Enum):
    """HBM memory mode on SPR Max."""

    FLAT = "flat"
    CACHE = "cache"
    HBM_ONLY = "hbm_only"


class ClusteringMode(enum.Enum):
    """Socket clustering mode."""

    QUADRANT = "quad"
    SNC4 = "snc"


@dataclasses.dataclass(frozen=True)
class NumaConfig:
    """One memory-mode x clustering-mode server configuration."""

    memory_mode: MemoryMode
    clustering_mode: ClusteringMode

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``quad_flat``."""
        return f"{self.clustering_mode.value}_{self.memory_mode.value}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


QUAD_CACHE = NumaConfig(MemoryMode.CACHE, ClusteringMode.QUADRANT)
QUAD_FLAT = NumaConfig(MemoryMode.FLAT, ClusteringMode.QUADRANT)
SNC_CACHE = NumaConfig(MemoryMode.CACHE, ClusteringMode.SNC4)
SNC_FLAT = NumaConfig(MemoryMode.FLAT, ClusteringMode.SNC4)
HBM_ONLY_QUAD = NumaConfig(MemoryMode.HBM_ONLY, ClusteringMode.QUADRANT)

#: The four configurations evaluated in Fig. 13, in the paper's order
#: (quad_cache is the normalization baseline).
EVALUATED_CONFIGS: List[NumaConfig] = [QUAD_CACHE, QUAD_FLAT, SNC_CACHE, SNC_FLAT]

#: Every configuration :func:`get_config` accepts, and the vocabulary
#: its error messages (and the ``numa:`` backend token's) list.
KNOWN_CONFIGS: List[NumaConfig] = EVALUATED_CONFIGS + [HBM_ONLY_QUAD]


def get_config(label: str) -> NumaConfig:
    """Look up a configuration by paper label (``"quad_flat"``, ...)."""
    for config in KNOWN_CONFIGS:
        if config.label == label.lower():
            return config
    raise KeyError(f"unknown NUMA config {label!r}; known: "
                   f"{[c.label for c in KNOWN_CONFIGS]}")
