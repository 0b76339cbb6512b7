"""Weight-only / INT8 quantization extension (paper Section VII-B)."""

from repro.quant.weightonly import (
    QuantConfig,
    QuantScheme,
    quantize_op,
    quantize_ops,
    quantized_weight_bytes,
)

__all__ = [
    "QuantConfig",
    "QuantScheme",
    "quantize_op",
    "quantize_ops",
    "quantized_weight_bytes",
]

