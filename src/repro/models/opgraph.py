"""Operator-graph construction for prefill and decode (Section II-B).

``prefill_ops`` builds the operator list for processing a whole prompt in
one pass (compute-bound: big GEMMs with m = batch * seq_len).
``decode_step_ops`` builds the list for generating ONE token per sequence
(memory-bound: GEMV-like GEMMs with m = batch, plus a full KV-cache read).

The memoized builders take the activation/weight dtype of the backend
that prices them (BF16 in the paper's experiments); the public functions
build the BF16 graphs.
"""

import functools
from typing import List, Tuple

from repro.hardware.datatypes import DType
from repro.models.config import FFNKind, ModelConfig
from repro.models.layers import Op, OpKind
from repro.utils.validation import require_positive


def prefill_ops(model: ModelConfig, batch_size: int, seq_len: int,
                fused_attention: bool = False) -> List[Op]:
    """Operators for one prefill pass over a batch of prompts.

    Weight matrices are streamed once per layer pass (shared across the
    whole batch); the KV cache is *written* for every prompt token.

    ``fused_attention`` models a FlashAttention-style kernel: the score
    matrix P never round-trips through memory (softmax runs on register/
    cache-resident tiles), removing the O(seq^2) activation traffic while
    keeping the FLOPs — the design-choice ablation for long prompts.

    Results are memoized per (model, batch, seq_len, dtype, fused); see
    :func:`clear_opgraph_caches`. This graph is BF16, the paper's dtype;
    a backend builds its own dtype's (``BaselineBackend.prefill_ops``).
    """
    require_positive(batch_size, "batch_size")
    require_positive(seq_len, "seq_len")
    return list(_prefill_ops_cached(model, batch_size, seq_len, DType.BF16,
                                    fused_attention))


@functools.lru_cache(maxsize=4096)
def _prefill_ops_cached(model: ModelConfig, batch_size: int, seq_len: int,
                        dtype: DType, fused_attention: bool) -> Tuple[Op, ...]:
    nb = dtype.nbytes
    tokens = batch_size * seq_len
    ops: List[Op] = []

    ops.append(Op(
        name="embedding",
        kind=OpKind.EMBEDDING,
        activation_bytes=float(tokens * model.d_model * nb * 2),
    ))

    ops.extend(_attention_ops(model, batch_size, seq_len,
                              q_len=seq_len, kv_len=seq_len, dtype=dtype,
                              causal=True, fused=fused_attention))
    ops.extend(_ffn_ops(model, rows=tokens, dtype=dtype))
    ops.extend(_norm_ops(model, rows=tokens, dtype=dtype))

    # LM head on the final position only (one next-token prediction per
    # sequence) — the standard generation-path optimization.
    ops.append(Op(
        name="lm_head",
        kind=OpKind.LINEAR,
        m=batch_size, n=model.vocab_size, k=model.d_model,
        instances=1,
        weight_bytes=float(model.vocab_size * model.d_model * nb),
        activation_bytes=float(batch_size * (model.d_model + model.vocab_size) * nb),
    ))
    return tuple(ops)


def decode_step_ops(model: ModelConfig, batch_size: int,
                    kv_len: int) -> List[Op]:
    """Operators for generating one token per sequence with *kv_len* cached.

    The defining property of decode: every weight byte and every cached KV
    byte is read to produce just ``batch_size`` tokens, so arithmetic
    intensity is ~2 FLOPs per weight byte at batch 1.

    Results are memoized per (model, batch, kv_len, dtype); see
    :func:`clear_opgraph_caches`. This graph is BF16, the paper's dtype;
    a backend builds its own dtype's (``BaselineBackend.decode_ops``).
    """
    require_positive(batch_size, "batch_size")
    require_positive(kv_len, "kv_len")
    return list(_decode_step_ops_cached(model, batch_size, kv_len,
                                        DType.BF16))


@functools.lru_cache(maxsize=8192)
def _decode_step_ops_cached(model: ModelConfig, batch_size: int, kv_len: int,
                            dtype: DType) -> Tuple[Op, ...]:
    nb = dtype.nbytes
    ops: List[Op] = []

    ops.append(Op(
        name="embedding",
        kind=OpKind.EMBEDDING,
        activation_bytes=float(batch_size * model.d_model * nb * 2),
    ))

    ops.extend(_attention_ops(model, batch_size, seq_len=1,
                              q_len=1, kv_len=kv_len + 1, dtype=dtype,
                              causal=False))
    ops.extend(_ffn_ops(model, rows=batch_size, dtype=dtype))
    ops.extend(_norm_ops(model, rows=batch_size, dtype=dtype))

    ops.append(Op(
        name="lm_head",
        kind=OpKind.LINEAR,
        m=batch_size, n=model.vocab_size, k=model.d_model,
        instances=1,
        weight_bytes=float(model.vocab_size * model.d_model * nb),
        activation_bytes=float(batch_size * (model.d_model + model.vocab_size) * nb),
    ))
    return tuple(ops)


def clear_opgraph_caches() -> None:
    """Drop memoized prefill/decode operator graphs."""
    _prefill_ops_cached.cache_clear()
    _decode_step_ops_cached.cache_clear()


def _attention_ops(model: ModelConfig, batch_size: int, seq_len: int,
                   q_len: int, kv_len: int, dtype: DType,
                   causal: bool, fused: bool = False) -> List[Op]:
    """QKV/output projections plus the two batched attention GEMMs.

    *q_len* is the number of query positions per sequence this pass
    (seq_len for prefill, 1 for decode); *kv_len* the key/value positions
    attended to. During decode the pass reads the whole cached K and V for
    every layer (`kv_read_bytes`) — the memory-bound heart of Section II-B.
    For causal prefill the score/context GEMMs only touch the lower
    triangle; FLOPs and score bytes are halved accordingly. With *fused*
    attention the P matrix stays in registers/cache: its memory traffic
    vanishes from the score, softmax, and context ops.
    """
    nb = dtype.nbytes
    rows = batch_size * q_len
    d = model.d_model
    dkv = model.d_kv
    hd = model.head_dim
    layers = model.n_layers
    causal_factor = 0.5 if causal and q_len == kv_len else 1.0

    # Per-pass KV write: this pass appends q_len tokens per sequence.
    kv_write = float(2 * layers * batch_size * q_len * dkv * nb)
    # Per-pass KV read: decode reads the full cache; causal prefill produces
    # K/V on the fly (counted as activation traffic in the GEMM ops below).
    kv_read = 0.0 if q_len == kv_len else float(2 * layers * batch_size * kv_len * dkv * nb)

    qkv = Op(
        name="qkv_proj",
        kernel_launches=layers,
        kind=OpKind.LINEAR,
        m=rows, n=d + 2 * dkv, k=d,
        instances=layers,
        weight_bytes=float(layers * (d + 2 * dkv) * d * nb),
        activation_bytes=float(layers * rows * (d + (d + 2 * dkv)) * nb),
        kv_write_bytes=kv_write,
    )

    # Q @ K^T: one GEMM per (sequence, query-head group). With GQA the K/V
    # operand is shared inside a group but the GEMM count follows query
    # heads; FLOPs are identical either way.
    score_m = q_len
    score_n = kv_len
    score_gemms = batch_size * model.n_heads
    p_traffic = 0.0 if fused else \
        model.n_heads * q_len * kv_len * causal_factor
    score = Op(
        name="attn_qk",
        kernel_launches=layers,
        kind=OpKind.ATTN_QK,
        m=max(1, int(score_m * causal_factor)), n=score_n, k=hd,
        instances=score_gemms * layers,
        activation_bytes=float(
            layers * batch_size
            * (model.n_heads * q_len * hd            # Q read
               + model.n_kv_heads * kv_len * hd      # K read (shared in GQA)
               + p_traffic)                          # P write (0 if fused)
            * nb),
        kv_read_bytes=kv_read / 2,  # K half of the cache read
    )

    softmax = Op(
        name="softmax",
        kernel_launches=layers,
        kind=OpKind.SOFTMAX,
        activation_bytes=0.0 if fused else float(
            2 * layers * batch_size * model.n_heads
            * q_len * kv_len * causal_factor * nb),
        extra_flops=float(
            5 * layers * batch_size * model.n_heads
            * q_len * kv_len * causal_factor),
    )

    context = Op(
        name="attn_pv",
        kernel_launches=layers,
        kind=OpKind.ATTN_PV,
        m=max(1, int(q_len * causal_factor)), n=hd, k=kv_len,
        instances=score_gemms * layers,
        activation_bytes=float(
            layers * batch_size
            * (p_traffic                                       # P read (0 if fused)
               + model.n_kv_heads * kv_len * hd                # V read
               + model.n_heads * q_len * hd)                   # out write
            * nb),
        kv_read_bytes=kv_read / 2,  # V half of the cache read
    )

    out_proj = Op(
        name="out_proj",
        kernel_launches=layers,
        kind=OpKind.LINEAR,
        m=rows, n=d, k=d,
        instances=layers,
        weight_bytes=float(layers * d * d * nb),
        activation_bytes=float(layers * rows * 2 * d * nb),
    )
    return [qkv, score, softmax, context, out_proj]


def _ffn_ops(model: ModelConfig, rows: int, dtype: DType) -> List[Op]:
    """Feed-forward block GEMMs for *rows* token positions per layer.

    For mixture-of-experts models only the *activated* experts' weights
    stream from memory: at rows=1 that is ``top_k / n_experts`` of the FFN
    (the MoE decode advantage), saturating toward all experts as the
    token count grows. FLOPs always cover exactly ``top_k`` experts per
    token. A small router GEMM precedes the experts.
    """
    nb = dtype.nbytes
    d, dff, layers = model.d_model, model.d_ff, model.n_layers
    ops: List[Op] = []
    if model.is_moe:
        return _moe_ffn_ops(model, rows, dtype)
    if model.ffn_kind is FFNKind.SWIGLU:
        up_mats = 2  # gate + up projections, fused as one wide GEMM
        ops.append(Op(
            name="ffn_gate_up",
            kind=OpKind.LINEAR,
            m=rows, n=up_mats * dff, k=d,
            instances=layers,
            weight_bytes=float(layers * up_mats * dff * d * nb),
            activation_bytes=float(layers * rows * (d + up_mats * dff) * nb),
        ))
        ops.append(Op(
            name="silu_mul",
            kind=OpKind.ELEMENTWISE,
            activation_bytes=float(layers * rows * 3 * dff * nb),
            extra_flops=float(4 * layers * rows * dff),
        ))
    else:
        ops.append(Op(
            name="ffn_up",
            kind=OpKind.LINEAR,
            m=rows, n=dff, k=d,
            instances=layers,
            weight_bytes=float(layers * dff * d * nb),
            activation_bytes=float(layers * rows * (d + dff) * nb),
        ))
        ops.append(Op(
            name="relu",
            kind=OpKind.ELEMENTWISE,
            activation_bytes=float(layers * rows * 2 * dff * nb),
            extra_flops=float(layers * rows * dff),
        ))
    ops.append(Op(
        name="ffn_down",
        kernel_launches=layers,
        kind=OpKind.LINEAR,
        m=rows, n=d, k=dff,
        instances=layers,
        weight_bytes=float(layers * d * dff * nb),
        activation_bytes=float(layers * rows * (dff + d) * nb),
    ))
    return ops


def _moe_ffn_ops(model: ModelConfig, rows: int, dtype: DType) -> List[Op]:
    """Mixture-of-experts FFN: router + activated expert GEMMs."""
    nb = dtype.nbytes
    d, dff, layers = model.d_model, model.d_ff, model.n_layers
    experts = model.n_experts
    active_fraction = model.active_expert_fraction(rows)
    active_experts = max(1, round(active_fraction * experts))
    # Tokens routed per activated expert (top_k slots per token spread
    # across the activated experts).
    rows_per_expert = max(1, (rows * model.top_k) // active_experts)
    up_mats = 2 if model.ffn_kind is FFNKind.SWIGLU else 1

    router = Op(
        name="moe_router",
        kernel_launches=layers,
        kind=OpKind.LINEAR,
        m=rows, n=experts, k=d,
        instances=layers,
        weight_bytes=float(layers * experts * d * nb),
        activation_bytes=float(layers * rows * (d + experts) * nb),
    )
    gate_up = Op(
        name="moe_gate_up" if up_mats == 2 else "moe_up",
        kernel_launches=layers,
        kind=OpKind.LINEAR,
        m=rows_per_expert, n=up_mats * dff, k=d,
        instances=layers * active_experts,
        weight_bytes=float(layers * up_mats * dff * d * nb
                           * experts * active_fraction),
        activation_bytes=float(
            layers * rows * model.top_k * (d + up_mats * dff) * nb),
    )
    act = Op(
        name="moe_activation",
        kernel_launches=layers,
        kind=OpKind.ELEMENTWISE,
        activation_bytes=float(
            layers * rows * model.top_k * (up_mats + 1) * dff * nb),
        extra_flops=float(4 * layers * rows * model.top_k * dff),
    )
    down = Op(
        name="moe_down",
        kernel_launches=layers,
        kind=OpKind.LINEAR,
        m=rows_per_expert, n=d, k=dff,
        instances=layers * active_experts,
        weight_bytes=float(layers * d * dff * nb
                           * experts * active_fraction),
        activation_bytes=float(
            layers * rows * model.top_k * (dff + d) * nb),
    )
    combine = Op(
        name="moe_combine",
        kernel_launches=layers,
        kind=OpKind.ELEMENTWISE,
        activation_bytes=float(
            layers * rows * (model.top_k + 1) * d * nb),
        extra_flops=float(layers * rows * model.top_k * d),
    )
    return [router, gate_up, act, down, combine]


def _norm_ops(model: ModelConfig, rows: int, dtype: DType) -> List[Op]:
    """LayerNorm/RMSNorm and residual-add traffic per pass."""
    nb = dtype.nbytes
    d, layers = model.d_model, model.n_layers
    norms = Op(
        name="norms",
        kernel_launches=layers,
        kind=OpKind.NORM,
        activation_bytes=float(2 * layers * rows * 2 * d * nb),
        extra_flops=float(2 * layers * rows * 5 * d),
    )
    residual = Op(
        name="residual_add",
        kernel_launches=layers,
        kind=OpKind.ELEMENTWISE,
        activation_bytes=float(2 * layers * rows * 3 * d * nb),
        extra_flops=float(2 * layers * rows * d),
    )
    return [norms, residual]
