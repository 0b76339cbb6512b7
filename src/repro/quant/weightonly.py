"""Weight-only quantization model (paper Section VII-B, ref [48]).

The paper's related work highlights weight-only INT8/INT4 quantization as
the practical route to efficient CPU inference: weights are stored in a
narrow integer format and dequantized to BF16 on the fly (or consumed
directly by AMX's INT8 tile path). The performance consequences the model
captures:

* **weight traffic shrinks** by the storage ratio — a direct win for the
  memory-bound decode phase;
* **KV cache and activations stay at the activation dtype** (weight-only);
* **compute either stays BF16** (dequant-then-BF16-GEMM, paying a small
  dequantization overhead) or uses the INT8 engine path at 2x AMX peak
  when both operands are quantized (full INT8, with activation
  quantization overhead instead).

This is an *extension* experiment: the paper does not evaluate
quantization, but its decode-bandwidth analysis predicts the outcome, and
the ablation bench verifies the prediction.
"""

import dataclasses
import enum

from repro.hardware.datatypes import DType
from repro.models.config import ModelConfig
from repro.models.layers import Op
from repro.models.memory import weight_bytes


class QuantScheme(enum.Enum):
    """Supported quantization schemes."""

    NONE = "none"                  # BF16 weights (the paper's baseline)
    WEIGHT_ONLY_INT8 = "w8"        # INT8 weights, BF16 activations/compute
    WEIGHT_ONLY_INT4 = "w4"        # INT4 weights, BF16 activations/compute
    FULL_INT8 = "w8a8"             # INT8 weights + activations, INT8 compute


@dataclasses.dataclass(frozen=True)
class QuantConfig:
    """Quantization configuration for a simulated run.

    Attributes:
        scheme: Quantization scheme.
        kv_dtype: KV-cache storage dtype. INT8 KV halves cache traffic —
            the long-context decode lever (KV reads grow with context
            while weight reads stay fixed).
    """

    scheme: QuantScheme = QuantScheme.WEIGHT_ONLY_INT8
    kv_dtype: DType = DType.BF16
    #: Elements per scale group (per-group scales add ``2 / group_size``
    #: bytes per weight byte of overhead).
    group_size = 128
    #: Fractional compute-time overhead of on-the-fly dequantization in
    #: the weight-only schemes (fused into the GEMM inner loop, small but
    #: not free).
    dequant_overhead = 0.08

    @property
    def compute_dtype(self) -> DType:
        """Dtype the GEMM engine executes in."""
        if self.scheme is QuantScheme.FULL_INT8:
            return DType.INT8
        return DType.BF16

    def weight_bytes_ratio(self) -> float:
        """Quantized weight bytes per BF16 weight byte (scales included)."""
        if self.scheme is QuantScheme.NONE:
            return 1.0
        scale_overhead = 2.0 / self.group_size  # one BF16 scale per group
        if self.scheme is QuantScheme.WEIGHT_ONLY_INT4:
            return (0.5 + scale_overhead) / DType.BF16.nbytes
        return (DType.INT8.nbytes + scale_overhead) / DType.BF16.nbytes

    def kv_bytes_ratio(self) -> float:
        """Quantized KV bytes per BF16 KV byte."""
        return self.kv_dtype.nbytes / DType.BF16.nbytes


def quantize_op(op: Op, config: QuantConfig) -> Op:
    """Rewrite one operator's traffic/compute for the quantization scheme.

    Weight-carrying GEMMs shrink their weight stream; KV traffic scales by
    the KV-dtype ratio. Activations, norms, and elementwise ops run at the
    activation dtype regardless (weight-only quantization).
    """
    kv_ratio = config.kv_bytes_ratio()
    changed = op
    if config.scheme is not QuantScheme.NONE and op.weight_bytes > 0:
        changed = dataclasses.replace(
            changed, weight_bytes=op.weight_bytes
            * config.weight_bytes_ratio())
    if kv_ratio != 1.0 and (op.kv_read_bytes > 0 or op.kv_write_bytes > 0):
        changed = dataclasses.replace(
            changed,
            kv_read_bytes=changed.kv_read_bytes * kv_ratio,
            kv_write_bytes=changed.kv_write_bytes * kv_ratio)
    return changed


def quantize_ops(ops, config: QuantConfig):
    """Apply :func:`quantize_op` across an operator list."""
    return [quantize_op(op, config) for op in ops]


def quantized_weight_bytes(model: ModelConfig, config: QuantConfig) -> float:
    """Total weight bytes for *model* under *config*."""
    return weight_bytes(model, DType.BF16) * config.weight_bytes_ratio()
