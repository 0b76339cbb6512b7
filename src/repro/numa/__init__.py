"""NUMA substrate: memory/clustering modes and the placement model."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".model": ("DEFAULT_NUMA_CALIBRATION", "NumaCalibration", "NumaModel"),
    ".modes": ("EVALUATED_CONFIGS", "HBM_ONLY_QUAD", "QUAD_CACHE", "QUAD_FLAT",
               "SNC_CACHE", "SNC_FLAT", "ClusteringMode", "MemoryMode",
               "NumaConfig", "get_config"),
})
