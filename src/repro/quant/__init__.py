"""Weight-only / INT8 quantization extension (paper Section VII-B)."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".weightonly": ("QuantConfig", "QuantScheme", "quantize_op",
                    "quantize_ops", "quantized_weight_bytes"),
})
