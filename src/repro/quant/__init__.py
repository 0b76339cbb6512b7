"""Weight-only / INT8 quantization extension (paper Section VII-B)."""

from repro.quant.weightonly import (
    QuantConfig,
    QuantScheme,
    is_weight_gemm,
    quantize_op,
    quantize_ops,
    quantized_weight_bytes,
)

__all__ = [
    "QuantConfig",
    "QuantScheme",
    "is_weight_gemm",
    "quantize_op",
    "quantize_ops",
    "quantized_weight_bytes",
]

