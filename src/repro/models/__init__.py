"""LLM architecture substrate: model configs, operator graphs, footprints."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".builder": ("build_model", "scale_to_params"),
    ".config": ("FFNKind", "ModelConfig"),
    ".layers": ("Op", "OpKind", "total_bytes", "total_flops",
                "total_weight_bytes"),
    ".memory": ("kv_cache_bytes", "kv_cache_bytes_per_token",
                "peak_activation_bytes", "weight_bytes"),
    ".opgraph": ("decode_step_ops", "prefill_ops"),
    ".registry": ("EVALUATED_MODEL_NAMES", "all_models", "evaluated_models",
                  "get_model"),
})
