"""Memory-footprint math: weights, KV cache, activations (Figs. 6 and 7).

The paper's KV-cache formula (Section II-B)::

    2B(BF16) * 2(Key/Value) * n_layers * d_model * n_seq * n_batch

assumes multi-head attention. The generalized form used here replaces
``d_model`` with ``n_kv_heads * head_dim`` so grouped-query models
(LLaMA2-70B) are sized correctly; for MHA models the two coincide.
"""

from repro.hardware.datatypes import DType
from repro.models.config import ModelConfig
from repro.utils.validation import require_positive


def weight_bytes(model: ModelConfig, dtype: DType = DType.FP16) -> float:
    """Bytes to store all model parameters in *dtype* (Fig. 6 uses FP16)."""
    return model.param_count() * dtype.nbytes


def kv_cache_bytes(model: ModelConfig, seq_len: int,
                   batch_size: int) -> float:
    """Bytes of BF16 KV cache for *batch_size* sequences of *seq_len* tokens.

    Grows linearly in both sequence length and batch size — the scaling
    that Fig. 7 plots against the (constant) model size. A backend sizes
    its own dtype's cache through ``kv_bytes_per_token``.
    """
    require_positive(seq_len, "seq_len")
    require_positive(batch_size, "batch_size")
    return kv_cache_bytes_per_token(model) * seq_len * batch_size


def kv_cache_bytes_per_token(model: ModelConfig,
                             dtype: DType = DType.BF16) -> float:
    """KV bytes appended per generated/prefilled token per sequence."""
    return 2.0 * model.n_layers * model.d_kv * dtype.nbytes  # K and V


def peak_activation_bytes(model: ModelConfig, seq_len: int, batch_size: int,
                          dtype: DType = DType.BF16) -> float:
    """Rough peak live-activation footprint during one layer's computation.

    Dominated by the FFN intermediate (batch x seq x d_ff) plus the
    residual stream (batch x seq x d_model). Attention score matrices are
    materialized per head-block and are counted at one layer's worth.
    """
    require_positive(seq_len, "seq_len")
    require_positive(batch_size, "batch_size")
    tokens = seq_len * batch_size
    residual = tokens * model.d_model
    ffn_inner = tokens * model.d_ff * model.ffn_kind.matrix_count
    scores = batch_size * model.n_heads * seq_len * seq_len
    return float(residual + ffn_inner + scores) * dtype.nbytes
