"""Operator-level representation of transformer computation.

Every piece of work the inference engine simulates is an :class:`Op`: a
(possibly batched) GEMM or a bandwidth-only operator, annotated with the
byte traffic it generates against weights, activations, and the KV cache.
The simulator prices each op with ``max(compute_time, memory_time)`` on a
target platform (roofline composition), so ops must carry *exact* FLOP and
byte counts — these are architecture facts, independent of hardware.
"""

import dataclasses
import enum
from typing import Iterable

from repro.utils.validation import require_non_negative


class OpKind(enum.Enum):
    """Operator category; selects the GEMM efficiency curve (if any)."""

    LINEAR = "linear"            # weight GEMM: projections, FFN, LM head
    ATTN_QK = "attn_qk"          # Q @ K^T batched GEMM (no weights)
    ATTN_PV = "attn_pv"          # softmax(P) @ V batched GEMM (no weights)
    SOFTMAX = "softmax"          # attention softmax (bandwidth-bound)
    NORM = "norm"                # LayerNorm / RMSNorm (bandwidth-bound)
    ELEMENTWISE = "elementwise"  # residual adds, activations, RoPE
    EMBEDDING = "embedding"      # token/position table gather


@dataclasses.dataclass(frozen=True)
class Op:
    """One simulated operator (aggregated over layers where identical).

    GEMM ops describe a single GEMM instance of shape ``m x n x k`` executed
    ``instances`` times (e.g. once per layer, or once per layer x head for
    attention). Bandwidth-only ops set m = n = k = 0 and carry bytes only.

    Attributes:
        name: Human-readable identifier ("qkv_proj", "ffn_up", ...).
        kind: Operator category.
        m, n, k: GEMM dimensions of ONE instance (0 for non-GEMM ops).
        instances: How many identical instances execute per pass.
        weight_bytes: Unique weight bytes streamed per pass (all instances).
        activation_bytes: Activation read+write traffic per pass.
        kv_read_bytes: KV-cache bytes read per pass.
        kv_write_bytes: KV-cache bytes appended per pass.
        extra_flops: Non-GEMM FLOPs (softmax exp/sum, norms), priced at
            vector rates; small but keeps instruction counts honest.
        kernel_launches: Distinct kernel/operator dispatches per pass.
            Attention runs one *batched* kernel per layer even though it
            contains batch x heads logical GEMMs, so launch overhead is
            charged per launch, not per instance.
    """

    name: str
    kind: OpKind
    m: int = 0
    n: int = 0
    k: int = 0
    instances: int = 1
    weight_bytes: float = 0.0
    activation_bytes: float = 0.0
    kv_read_bytes: float = 0.0
    kv_write_bytes: float = 0.0
    extra_flops: float = 0.0
    kernel_launches: int = 1

    def __post_init__(self) -> None:
        # One comparison chain on the hot path (every decode-walk probe
        # builds an Op); written ``>= 0`` so NaN fails it too.
        if not (self.m >= 0 and self.n >= 0 and self.k >= 0
                and self.instances >= 0 and self.weight_bytes >= 0
                and self.activation_bytes >= 0 and self.kv_read_bytes >= 0
                and self.kv_write_bytes >= 0 and self.extra_flops >= 0
                and self.kernel_launches >= 0):
            for field in dataclasses.fields(self)[2:]:  # all but name, kind
                require_non_negative(getattr(self, field.name), field.name)

    @property
    def is_gemm(self) -> bool:
        """Whether this op performs matrix multiplication."""
        return self.m > 0 and self.n > 0 and self.k > 0

    @property
    def gemm_flops(self) -> float:
        """GEMM FLOPs across all instances (2*m*n*k each)."""
        if not self.is_gemm:
            return 0.0
        return 2.0 * self.m * self.n * self.k * self.instances

    @property
    def flops(self) -> float:
        """Total FLOPs (GEMM plus elementwise extras)."""
        return self.gemm_flops + self.extra_flops

    @property
    def memory_bytes(self) -> float:
        """All byte traffic the op generates against the memory system."""
        return (self.weight_bytes + self.activation_bytes
                + self.kv_read_bytes + self.kv_write_bytes)


def total_flops(ops: Iterable[Op]) -> float:
    """Sum of FLOPs across *ops*."""
    return sum(op.flops for op in ops)


def total_bytes(ops: Iterable[Op]) -> float:
    """Sum of memory traffic across *ops*."""
    return sum(op.memory_bytes for op in ops)


def total_weight_bytes(ops: Iterable[Op]) -> float:
    """Sum of weight traffic across *ops*."""
    return sum(op.weight_bytes for op in ops)
