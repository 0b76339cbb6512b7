"""Inference-engine simulator: requests, KV cache, executor, results."""

from repro.engine.backend import (
    BaselineBackend,
    ExecutionBackend,
    NumaBackend,
    PrefixCacheBackend,
    QuantizedBackend,
    SpecDecodeBackend,
    SpecDecodeConfig,
    TensorParallelBackend,
    TPConfig,
    clear_backend_op_caches,
    parse_backend,
)
from repro.engine.executor import OperatorExecutor, OpTiming
from repro.engine.inference import (
    InferenceSimulator,
    MemoryCapacityError,
    simulate,
)
from repro.engine.kvcache import (
    KVCacheManager,
    OutOfBlocks,
    max_admissible_sequences,
)
from repro.engine.request import (
    EVALUATED_BATCH_SIZES,
    EVALUATED_INPUT_LENGTHS,
    PAPER_DEFAULT_REQUEST,
    InferenceRequest,
)
from repro.engine.results import (
    InferenceResult,
    PhaseStats,
    merge_phase_stats,
    phase_stats_from_timings,
)

__all__ = [
    "BaselineBackend",
    "EVALUATED_BATCH_SIZES",
    "EVALUATED_INPUT_LENGTHS",
    "ExecutionBackend",
    "NumaBackend",
    "PrefixCacheBackend",
    "QuantizedBackend",
    "SpecDecodeBackend",
    "SpecDecodeConfig",
    "TPConfig",
    "TensorParallelBackend",
    "clear_backend_op_caches",
    "parse_backend",
    "InferenceRequest",
    "InferenceResult",
    "InferenceSimulator",
    "KVCacheManager",
    "OutOfBlocks",
    "max_admissible_sequences",
    "MemoryCapacityError",
    "OpTiming",
    "OperatorExecutor",
    "PAPER_DEFAULT_REQUEST",
    "PhaseStats",
    "merge_phase_stats",
    "phase_stats_from_timings",
    "simulate",
]
