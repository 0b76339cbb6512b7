"""Inference-engine simulator: requests, KV cache, executor, results."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".backend": ("BaselineBackend", "ExecutionBackend", "NumaBackend",
                 "PrefixCacheBackend", "QuantizedBackend", "SpecDecodeBackend",
                 "SpecDecodeConfig", "TensorParallelBackend", "TPConfig",
                 "clear_backend_op_caches", "parse_backend"),
    ".executor": ("OperatorExecutor", "OpTiming"),
    ".inference": ("InferenceSimulator", "MemoryCapacityError", "simulate"),
    ".kvcache": ("KVCacheManager", "OutOfBlocks", "max_admissible_sequences"),
    ".request": ("EVALUATED_BATCH_SIZES", "EVALUATED_INPUT_LENGTHS",
                 "PAPER_DEFAULT_REQUEST", "InferenceRequest"),
    ".results": ("InferenceResult", "PhaseStats", "merge_phase_stats",
                 "phase_stats_from_timings"),
})
