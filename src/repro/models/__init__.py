"""LLM architecture substrate: model configs, operator graphs, footprints."""

from repro.models.builder import build_model, scale_to_params
from repro.models.config import FFNKind, ModelConfig
from repro.models.layers import (
    Op,
    OpKind,
    total_bytes,
    total_flops,
    total_weight_bytes,
)
from repro.models.memory import (
    kv_cache_bytes,
    kv_cache_bytes_per_token,
    peak_activation_bytes,
    weight_bytes,
)
from repro.models.opgraph import decode_step_ops, prefill_ops
from repro.models.registry import (
    EVALUATED_MODEL_NAMES,
    all_models,
    evaluated_models,
    get_model,
)

__all__ = [
    "EVALUATED_MODEL_NAMES",
    "build_model",
    "scale_to_params",
    "FFNKind",
    "ModelConfig",
    "Op",
    "OpKind",
    "all_models",
    "decode_step_ops",
    "evaluated_models",
    "get_model",
    "kv_cache_bytes",
    "kv_cache_bytes_per_token",
    "peak_activation_bytes",
    "prefill_ops",
    "total_bytes",
    "total_flops",
    "total_weight_bytes",
    "weight_bytes",
]
