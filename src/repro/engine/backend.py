"""Execution backends: one abstraction for every engine variant.

Engine variants (weight-only quantization, tensor parallelism,
speculative decoding, prefix caching, NUMA placement, hybrid
execution) differ from plain dense execution in a small, well-defined
set of places — exactly what :class:`ExecutionBackend` owns:

* **op-graph construction** — the prefill / decode operator lists,
  including any rewrite (quantized weight streams, TP sharding,
  speculative draft+verify cycles, prefix-KV reuse);
* **compute dtype** — what the GEMM engines execute in (INT8 dispatch
  for full-INT8 quantization), held by the base backend alone: every
  wrapper forwards its inner backend's;
* **footprint accounting** — weight bytes and KV bytes per token, from
  which one formula derives the footprint behind capacity checks and
  NUMA bandwidth derivation;
* **post-pricing adjustment** — per-op timing rewrites that ride the
  roofline result (dequantization overhead on weight GEMMs);
* **communication** — per-pass constant costs outside the op graph
  (TP allreduce), charged to wall time but not the compute/memory legs;
* **memory system** — the CPU run's placement (quad_flat on one socket
  unless a :class:`NumaBackend` says otherwise: memory mode, clustering
  and core count) or a GPU's device memory, which price bandwidth,
  compute scale and capacity;
* **platform check** — rejecting platforms the technique cannot run on
  (a compute dtype no engine executes, TP over more CPU sockets than
  there are or over cores that already span them, a placement on a
  GPU).

Backends are frozen dataclasses, and the backend value is its own
pricing identity: equal backends price identically, so the op-graph
memo and the shared cost tables (:mod:`repro.engine.stepcost`) both key
on the value. Every execution layer threads them through — the
:class:`~repro.engine.executor.OperatorExecutor` closed-form decode
pricing, :class:`~repro.engine.stepcost.DecodeCostTable`,
:class:`~repro.engine.inference.InferenceSimulator`, the batching
policies, :class:`~repro.cluster.node.ReplicaNode` fast-forward, and
the cluster — which is what lets a fleet mix replicas running different
backends while routers compare costs from the same backend-keyed
tables. See ``docs/backends.md``.
"""

import dataclasses
import difflib
import functools
from typing import Optional, Tuple

from repro.engine.executor import OperatorExecutor
from repro.hardware.datatypes import DType, parse_dtype
from repro.hardware.interconnect import upi_link
from repro.hardware.platform import Platform
from repro.hardware.registry import get_platform
from repro.models.config import ModelConfig
from repro.models.layers import Op, OpKind
from repro.models.memory import (
    kv_cache_bytes_per_token,
    peak_activation_bytes,
    weight_bytes,
)
from repro.models.opgraph import _decode_step_ops_cached, _prefill_ops_cached
from repro.numa.model import (
    DEFAULT_NUMA_CALIBRATION,
    NumaCalibration,
    NumaModel,
)
from repro.numa.modes import KNOWN_CONFIGS, NumaConfig, QUAD_FLAT, get_config
from repro.offload.policy import (
    DEFAULT_OFFLOAD_CALIBRATION,
    OffloadCalibration,
    hybrid_streamed_weight_bytes,
)
from repro.offload.transfer import gpu_prefill_leg, transfer_model_for
from repro.quant.weightonly import (
    QuantConfig,
    QuantScheme,
    quantize_ops,
    quantized_weight_bytes,
)
from repro.utils.validation import require_positive

#: Fraction of GPU memory a run's footprint may fill (the rest is CUDA
#: context and workspace); past it, a GPU run offloads (FlexGen).
GPU_FIT_HEADROOM = 0.92


# Rewritten op graphs are memoized per (backend, model, shape) — backends
# are frozen dataclasses, so equal configurations share entries. Wired
# into repro.experiments.clear_caches alongside the base opgraph caches.

@functools.lru_cache(maxsize=4096)
def _cached_prefill_ops(backend: "ExecutionBackend", model: ModelConfig,
                        batch_size: int, input_len: int) -> Tuple[Op, ...]:
    return tuple(backend._build_prefill_ops(model, batch_size, input_len))


@functools.lru_cache(maxsize=8192)
def _cached_decode_ops(backend: "ExecutionBackend", model: ModelConfig,
                       batch_size: int, kv_len: int) -> Tuple[Op, ...]:
    return tuple(backend._build_decode_ops(model, batch_size, kv_len))


def clear_backend_op_caches() -> None:
    """Drop memoized backend-rewritten op graphs and hybrid GPU legs."""
    _cached_prefill_ops.cache_clear()
    _cached_decode_ops.cache_clear()
    _HYBRID_EXECUTORS.clear()
    _hybrid_prefill_leg.cache_clear()


def scale_op(op: Op, factor: float) -> Op:
    """Scale an op so its priced time is *factor* x the original.

    Multiplies everything the roofline composes linearly — instance
    count, all byte traffic, extra FLOPs, and kernel launches — while
    leaving the per-instance GEMM shape (and hence the efficiency
    lookup) untouched, so ``time(scale_op(op, f)) == f * time(op)`` up
    to floating-point rounding. Speculative decoding uses this to fold
    "gamma draft steps + one verify pass per E[tokens] generated" into
    a single per-token op graph.
    """
    return dataclasses.replace(
        op,
        instances=op.instances * factor,
        weight_bytes=op.weight_bytes * factor,
        activation_bytes=op.activation_bytes * factor,
        kv_read_bytes=op.kv_read_bytes * factor,
        kv_write_bytes=op.kv_write_bytes * factor,
        extra_flops=op.extra_flops * factor,
        kernel_launches=op.kernel_launches * factor,
    )


def shard_op(op: Op, degree: int) -> Op:
    """Shard one operator's weights/compute across a TP group of *degree*.

    Weight GEMMs split along the output dimension: each shard does 1/S
    of the FLOPs and streams 1/S of the weights. Attention shards by
    heads. Activation traffic for the sharded portion scales likewise;
    the replicated hidden-state reads are a second-order term folded in
    with the same factor.
    """
    # Attention does not in fact shard by heads here: ``instances``
    # (batch x heads) stays whole and ``n`` is floored instead, which is
    # the KV length for attn_qk and head_dim for attn_pv. That floor is
    # the only reason TP decode pricing is not affine in kv_len (the
    # executor prices attn_qk per residue class of kv_len). Sharding
    # ``instances`` instead would move the committed TP results.
    return dataclasses.replace(
        op,
        instances=op.instances,
        m=op.m, n=max(1, op.n // degree) if op.is_gemm else op.n, k=op.k,
        weight_bytes=op.weight_bytes / degree,
        activation_bytes=op.activation_bytes / degree,
        kv_read_bytes=op.kv_read_bytes / degree,
        kv_write_bytes=op.kv_write_bytes / degree,
        extra_flops=op.extra_flops / degree,
    )


@dataclasses.dataclass(frozen=True)
class TPConfig:
    """Tensor-parallel configuration.

    Attributes:
        degree: Shards (sockets). The SPR server supports 2.
    """

    degree: int = 2
    #: Achieved fraction of UPI bandwidth for the ring-allreduce pattern
    #: (latency-bound chunks, bidirectional).
    allreduce_efficiency = 0.7

    def __post_init__(self) -> None:
        require_positive(self.degree, "degree")


@dataclasses.dataclass(frozen=True)
class SpecDecodeConfig:
    """Speculative-decoding parameters.

    Attributes:
        gamma: Draft tokens proposed per cycle.
        acceptance_rate: Per-token probability the target accepts a draft
            token (depends on draft/target agreement; 0.7-0.9 is typical
            for a well-matched draft).
    """

    gamma: int = 4
    acceptance_rate: float = 0.8

    def __post_init__(self) -> None:
        require_positive(self.gamma, "gamma")
        if not 0 < self.acceptance_rate < 1:
            raise ValueError(
                f"acceptance_rate must be in (0, 1), got {self.acceptance_rate}")

    @property
    def expected_tokens_per_cycle(self) -> float:
        """E[accepted tokens + 1 bonus token] per verification cycle."""
        alpha, gamma = self.acceptance_rate, self.gamma
        return (1.0 - alpha ** (gamma + 1)) / (1.0 - alpha)


class ExecutionBackend:
    """Base execution backend: plain BF16-style pass-through semantics.

    Subclasses override the ``_build_*`` hooks (memoized through the
    module caches) plus whichever of dtype/weight/KV/adjust/comm hooks
    their technique changes. All subclasses must be frozen dataclasses:
    the value is the pricing identity that keys the op-graph memo and
    the shared cost tables, so every field that changes pricing must be
    a dataclass field. A class constant (``QuantizedBackend.dtype``,
    ``TensorParallelBackend.interconnect``) is the same for every
    instance, so leaving it out of the identity loses nothing.
    """

    #: Whether :meth:`adjust_timing` is non-identity. The executor skips
    #: the adjustment call entirely when this is False.
    adjusts: bool = False

    # -- identification -----------------------------------------------------

    @property
    def label(self) -> str:
        """Short human-readable tag ("bf16", "int8-tp2", ...)."""
        raise NotImplementedError

    # -- dtype --------------------------------------------------------------

    @property
    def compute_dtype(self) -> DType:
        """Dtype the GEMM engines execute in (selects engine peaks)."""
        return self.dtype  # type: ignore[attr-defined]

    # -- op-graph construction ----------------------------------------------

    def prefill_ops(self, model: ModelConfig, batch_size: int,
                    input_len: int) -> Tuple[Op, ...]:
        """Memoized operator list for one prefill pass."""
        return _cached_prefill_ops(self, model, batch_size, input_len)

    def decode_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        """Memoized operator list for one fused decode iteration."""
        return _cached_decode_ops(self, model, batch_size, kv_len)

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        raise NotImplementedError

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        raise NotImplementedError

    # -- footprint accounting -----------------------------------------------

    def weight_bytes(self, model: ModelConfig) -> float:
        """Resident model-weight bytes under this backend."""
        return weight_bytes(model, self.dtype)  # type: ignore[attr-defined]

    def kv_bytes_per_token(self, model: ModelConfig) -> float:
        """KV-cache bytes one cached token holds per sequence (storage)."""
        dtype = self.dtype  # type: ignore[attr-defined]
        return kv_cache_bytes_per_token(model, dtype)

    def footprint_bytes(self, model: ModelConfig, request) -> float:
        """Peak resident bytes for *request* (weights + KV + activations)."""
        dtype = self.dtype  # type: ignore[attr-defined]
        seq_len, batch_size = request.max_seq_len, request.batch_size
        return (self.weight_bytes(model)
                + self.kv_bytes_per_token(model) * seq_len * batch_size
                + peak_activation_bytes(model, seq_len, batch_size, dtype))

    @property
    def capacity_scale(self) -> float:
        """Memory-capacity multiplier (TP spans multiple sockets)."""
        return 1.0

    # -- memory-system hooks ------------------------------------------------

    def numa_model(self, platform: Platform) -> Optional[NumaModel]:
        """The CPU placement this backend prices with.

        quad_flat (the paper's best, Key Finding #2) on one full socket
        unless a :class:`NumaBackend` sets its own; ``None`` on a GPU.
        """
        return NumaModel(platform, QUAD_FLAT) if platform.is_cpu else None

    def tier_bandwidth(self, platform: Platform,
                       footprint_bytes: float) -> float:
        """Sustained kernel bandwidth, bytes/s.

        The :meth:`numa_model`'s bandwidth for *footprint_bytes* at its
        core count on a CPU, peak x stream efficiency on a GPU.
        """
        numa = self.numa_model(platform)
        if numa is None:
            return platform.peak_memory_bandwidth * platform.stream_efficiency
        return numa.effective_bandwidth(footprint_bytes)

    def memory_capacity_bytes(self, platform: Platform) -> float:
        """Usable memory capacity, bytes.

        The :meth:`numa_model`'s software-visible capacity on a CPU
        (HBM-only < cache < flat, over every socket its cores span),
        :data:`GPU_FIT_HEADROOM` of device memory on a GPU.
        """
        numa = self.numa_model(platform)
        if numa is None:
            return platform.memory_capacity * GPU_FIT_HEADROOM
        return numa.capacity_bytes

    # -- pricing hooks ------------------------------------------------------

    def adjust_timing(self, timing):
        """Post-pricing rewrite of one winning OpTiming (identity here).

        Applied by the executor *after* engine selection: engines are
        chosen on uninflated timings, then the winner is inflated.
        Must only touch ``compute_s``/``time_s``, and re-derive
        ``memory_bound`` from the new compute leg — the memory leg stays
        the roofline's, so the closed-form decode analysis keeps its
        affine structure.
        """
        return timing

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        """Constant per-prefill-pass communication time (seconds)."""
        return 0.0

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        """Constant per-decode-iteration communication time (seconds)."""
        return 0.0

    def check_platform(self, platform: Platform) -> None:
        """Raise ValueError if this backend cannot run on *platform*."""
        platform.engines_for(self.compute_dtype)


@dataclasses.dataclass(frozen=True)
class BaselineBackend(ExecutionBackend):
    """Plain dense execution at one dtype (the paper's BF16 baseline)."""

    dtype: DType = DType.BF16

    # The base op graphs are already memoized in repro.models.opgraph;
    # skip the second cache layer entirely.
    def prefill_ops(self, model: ModelConfig, batch_size: int,
                    input_len: int) -> Tuple[Op, ...]:
        return _prefill_ops_cached(model, batch_size, input_len,
                                   self.dtype, False)

    def decode_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        return _decode_step_ops_cached(model, batch_size, kv_len, self.dtype)

    @property
    def label(self) -> str:
        return self.dtype.label


@dataclasses.dataclass(frozen=True)
class QuantizedBackend(ExecutionBackend):
    """Weight-only / full-INT8 quantized execution.

    Applies the :func:`~repro.quant.weightonly.quantize_ops` rewrite to
    the base graphs, prices at the scheme's compute dtype, sizes the
    footprint with quantized weights and KV, and inflates the compute
    leg of weight GEMMs by the dequantization overhead (weight-only
    schemes) after engine selection.
    """

    quant: QuantConfig = QuantConfig()
    #: Activation dtype of the base graph.
    dtype = DType.BF16

    @property
    def compute_dtype(self) -> DType:
        return self.quant.compute_dtype

    @property
    def adjusts(self) -> bool:  # type: ignore[override]
        return self.quant.scheme in (QuantScheme.WEIGHT_ONLY_INT8,
                                     QuantScheme.WEIGHT_ONLY_INT4)

    def adjust_timing(self, timing):
        op = timing.op
        if op.weight_bytes > 0 and op.is_gemm:
            # Dequantization rides the GEMM inner loop: inflate the
            # compute leg of weight GEMMs by the configured fraction.
            extra = timing.compute_s * self.quant.dequant_overhead
            compute_s = timing.compute_s + extra
            return timing._replace(
                compute_s=compute_s,
                time_s=max(compute_s, timing.memory_s) + timing.overhead_s,
                memory_bound=timing.memory_s >= compute_s)
        return timing

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        base = _prefill_ops_cached(model, batch_size, input_len,
                                   self.dtype, False)
        return tuple(quantize_ops(base, self.quant))

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        base = _decode_step_ops_cached(model, batch_size, kv_len, self.dtype)
        return tuple(quantize_ops(base, self.quant))

    def weight_bytes(self, model: ModelConfig) -> float:
        return quantized_weight_bytes(model, self.quant)

    def kv_bytes_per_token(self, model: ModelConfig) -> float:
        return super().kv_bytes_per_token(model) * self.quant.kv_bytes_ratio()

    @property
    def label(self) -> str:
        return {
            QuantScheme.NONE: self.dtype.label,
            QuantScheme.WEIGHT_ONLY_INT8: "int8",
            QuantScheme.WEIGHT_ONLY_INT4: "int4",
            QuantScheme.FULL_INT8: "w8a8",
        }[self.quant.scheme]


class WrapperBackend(ExecutionBackend):
    """A backend that changes a few hooks of an *inner* backend.

    Every hook forwards to the inner backend; a subclass overrides only
    what its technique changes, plus :attr:`label`.
    Subclasses are frozen dataclasses declaring their own
    ``inner: ExecutionBackend = BaselineBackend()`` field. The dtype is
    the base's: a wrapper has no dtype of its own, and :attr:`dtype`
    reads the inner backend's.
    """

    # Declared here for type checkers; each subclass's dataclass field
    # holds the value.
    inner: ExecutionBackend

    @property
    def dtype(self) -> DType:
        """The base backend's (activation) dtype."""
        return self.inner.dtype

    @property
    def compute_dtype(self) -> DType:
        return self.inner.compute_dtype

    @property
    def adjusts(self) -> bool:  # type: ignore[override]
        return self.inner.adjusts

    def adjust_timing(self, timing):
        return self.inner.adjust_timing(timing)

    def prefill_ops(self, model: ModelConfig, batch_size: int,
                    input_len: int) -> Tuple[Op, ...]:
        return self.inner.prefill_ops(model, batch_size, input_len)

    def decode_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        return self.inner.decode_ops(model, batch_size, kv_len)

    def weight_bytes(self, model: ModelConfig) -> float:
        return self.inner.weight_bytes(model)

    def kv_bytes_per_token(self, model: ModelConfig) -> float:
        return self.inner.kv_bytes_per_token(model)

    @property
    def capacity_scale(self) -> float:
        return self.inner.capacity_scale

    def numa_model(self, platform: Platform) -> Optional[NumaModel]:
        return self.inner.numa_model(platform)

    def tier_bandwidth(self, platform: Platform,
                       footprint_bytes: float) -> float:
        return self.inner.tier_bandwidth(platform, footprint_bytes)

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        return self.inner.prefill_comm_s(model, batch_size, input_len)

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        return self.inner.decode_comm_s(model, batch_size)

    def check_platform(self, platform: Platform) -> None:
        self.inner.check_platform(platform)
        # TP spans the sockets itself, so it refuses a placement whose
        # cores span them too, whichever of the two wraps the other. The
        # inner levels are checked first, so this raises where they meet.
        if self.capacity_scale > 1:
            placement = self.numa_model(platform)
            if placement.spans_sockets:
                spanning = (self.inner if self.inner.capacity_scale > 1
                            else self)
                raise ValueError(
                    f"{placement.cores} cores span the sockets of "
                    f"{platform.name}, which backend {spanning.label} "
                    f"already spans; use one socket's cores")


@dataclasses.dataclass(frozen=True)
class TensorParallelBackend(WrapperBackend):
    """Tensor-parallel execution across CPU sockets.

    The paper's 96-core result (Key Finding #3) shows that *naively*
    spanning two sockets loses: shared-nothing threads scatter accesses
    across UPI. Tensor parallelism is the disciplined alternative. Per
    decode step with TP degree ``S``:

    * local weight traffic per socket is ``weights / S`` — the win,
      since decode is bandwidth-bound and every socket's HBM now
      contributes;
    * ``2 * n_layers * batch * d_model`` hidden-state elements, at the
      base backend's dtype width, cross UPI in two ring-allreduces per
      layer (after the attention out-proj and the FFN down-proj) — the
      cost, small for decode and growing with batch;
    * compute also shards ``1/S`` (irrelevant for decode, helpful for
      prefill).

    So TP beats one socket whenever the split weight stream saves more
    than the allreduce costs, which for small-batch decode is almost
    always.

    Shards every operator of the *inner* backend's graph (so TP
    composes with quantization: quantize first, then shard the shrunken
    weight stream) and charges the allreduce as per-pass communication
    time. Bandwidth derives from the full unsharded footprint; capacity
    scales by the degree (the shards span that many sockets). Only a
    CPU with at least ``S`` sockets can run it (:meth:`check_platform`).
    """

    tp: TPConfig = TPConfig()
    inner: ExecutionBackend = BaselineBackend()
    #: The shards talk over the sockets' UPI links.
    interconnect = upi_link()

    # Sharded graphs are memoized like any built graph.
    prefill_ops = ExecutionBackend.prefill_ops
    decode_ops = ExecutionBackend.decode_ops

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        return tuple(shard_op(op, self.tp.degree)
                     for op in self.inner.prefill_ops(model, batch_size,
                                                      input_len))

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        return tuple(shard_op(op, self.tp.degree)
                     for op in self.inner.decode_ops(model, batch_size,
                                                     kv_len))

    @property
    def capacity_scale(self) -> float:
        return float(self.tp.degree)

    def allreduce_s(self, model: ModelConfig, rows: int) -> float:
        """Two hidden-state allreduces per layer at the base backend's
        dtype width (ring: 2(S-1)/S volume)."""
        s = self.tp.degree
        if s == 1:
            return 0.0
        payload = (2 * model.n_layers * rows * model.d_model
                   * self.dtype.nbytes)
        ring_volume = payload * 2 * (s - 1) / s
        bandwidth = (self.interconnect.effective_bw
                     * self.tp.allreduce_efficiency)
        latency = 2 * model.n_layers * self.interconnect.latency_s
        return ring_volume / bandwidth + latency

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        inner = super().prefill_comm_s(model, batch_size, input_len)
        return self.allreduce_s(model, batch_size * input_len) + inner

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        inner = super().decode_comm_s(model, batch_size)
        return self.allreduce_s(model, batch_size) + inner

    def check_platform(self, platform: Platform) -> None:
        if not platform.is_cpu or platform.topology is None:
            raise ValueError(
                f"{platform.name} is not a CPU platform; tensor "
                f"parallelism shards across CPU sockets")
        if self.tp.degree > platform.topology.sockets:
            raise ValueError(
                f"TP degree {self.tp.degree} exceeds the "
                f"{platform.topology.sockets} sockets of {platform.name}")
        super().check_platform(platform)

    @property
    def label(self) -> str:
        return f"{self.inner.label}-tp{self.tp.degree}"


@dataclasses.dataclass(frozen=True)
class SpecDecodeBackend(WrapperBackend):
    """Speculative decoding folded into a per-token decode graph.

    One speculation cycle is ``gamma`` draft-model decode steps plus one
    target verification pass (prefill-shaped over ``gamma + 1``
    positions plus the cached-context KV read) and yields
    ``E[tokens] = (1 - alpha^(gamma+1)) / (1 - alpha)`` tokens. The
    decode graph scales both pieces by ``1/E[tokens]`` via
    :func:`scale_op`, so one "decode iteration" prices to exactly the
    effective per-token cost — which is what lets a speculative replica
    run under the unchanged batching/cluster loops.

    Both pieces are the *inner* backend's graphs (draft steps from its
    ``decode_ops``, the verification pass from its ``prefill_ops`` and
    ``decode_ops``), so speculation composes over quantization: an INT8
    base streams INT8 weights in the draft and the verify pass alike.
    Prefill and KV are the inner backend's; the weights add the draft's
    at the inner backend's storage (draft KV is second-order: tiny).
    """

    draft: ModelConfig
    spec: SpecDecodeConfig = SpecDecodeConfig()
    inner: ExecutionBackend = BaselineBackend()

    # The folded decode graph is memoized like any built graph.
    decode_ops = ExecutionBackend.decode_ops

    def verify_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        """Unscaled target verification pass at *kv_len* cached tokens."""
        ops = list(self.inner.prefill_ops(model, batch_size,
                                          self.spec.gamma + 1))
        kv_read = sum(op.kv_read_bytes for op in
                      self.inner.decode_ops(model, batch_size, kv_len))
        # Pure-memory op with zero launches: prices to bytes / bandwidth.
        ops.append(Op(name="verify_kv_read", kind=OpKind.ELEMENTWISE,
                      kv_read_bytes=kv_read, kernel_launches=0))
        return tuple(ops)

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        e_tokens = self.spec.expected_tokens_per_cycle
        draft_scale = self.spec.gamma / e_tokens
        ops = [dataclasses.replace(scale_op(op, draft_scale),
                                   name=f"draft/{op.name}")
               for op in self.inner.decode_ops(self.draft, batch_size,
                                               kv_len)]
        ops += [dataclasses.replace(scale_op(op, 1.0 / e_tokens),
                                    name=f"verify/{op.name}")
                for op in self.verify_ops(model, batch_size, kv_len)]
        return tuple(ops)

    def weight_bytes(self, model: ModelConfig) -> float:
        return (self.inner.weight_bytes(model)
                + self.inner.weight_bytes(self.draft))

    @property
    def label(self) -> str:
        return (f"{self.inner.label}-spec-{self.draft.name}"
                f"-g{self.spec.gamma}")


@dataclasses.dataclass(frozen=True)
class PrefixCacheBackend(WrapperBackend):
    """Shared-prefix (system-prompt) caching on the prefill path.

    A prompt of ``input_len`` tokens with the leading ``prefix_len``
    cached pays the *inner* backend's prefill over the unique suffix
    only, plus one read of the cached prefix's K/V per layer (the suffix
    still attends to it): the bytes the inner backend's own prefill of
    the prefix wrote, so the KV storage dtype (an INT8 KV cache, say)
    stays the inner backend's. Decode and everything else is the inner
    backend's. Prompts no longer than the prefix keep one uncached token
    so the pass stays well-formed.
    """

    prefix_len: int = 512
    inner: ExecutionBackend = BaselineBackend()

    def __post_init__(self) -> None:
        require_positive(self.prefix_len, "prefix_len")

    # The warm prefill graph is memoized like any built graph.
    prefill_ops = ExecutionBackend.prefill_ops

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        prefix = min(self.prefix_len, input_len - 1)
        ops = list(self.inner.prefill_ops(model, batch_size,
                                          input_len - prefix))
        if prefix > 0:
            kv_read = sum(op.kv_write_bytes for op in
                          self.inner.prefill_ops(model, batch_size, prefix))
            ops.append(Op(name="prefix_kv_read", kind=OpKind.ELEMENTWISE,
                          kv_read_bytes=kv_read, kernel_launches=0))
        return tuple(ops)

    @property
    def label(self) -> str:
        return f"{self.inner.label}-prefix{self.prefix_len}"


@dataclasses.dataclass(frozen=True)
class NumaBackend(WrapperBackend):
    """A CPU run's placement as a composable backend (Section VI, opt. 1).

    Wraps an *inner* backend (plain dense by default; quantized when
    composed) and reprices its bandwidth-bound ops and compute scale
    through :class:`~repro.numa.model.NumaModel`: the configured memory
    x clustering mode, optional NUMA-aware allocation, the core count
    (*cores*; ``None`` = one full socket, the paper's tuned setting),
    and — when *hot_fraction* is set — hot/cold weight placement across
    the HBM/DDR tiers (*hot_fraction* of memory traffic pinned to the
    fast tier, the rest spilling to DDR). Only the memory-system hooks
    are its own; op graphs, dtype, footprint, and per-pass communication
    forward to the inner backend (:class:`WrapperBackend`). It is the
    only way to place a run other than quad_flat on one socket, and the
    placement it prices with is the one the simulator's
    ``config_label`` and the remote-access and UPI counters report.
    Only a CPU can run it, at no more cores than the CPU has
    (:meth:`check_platform`).

    The placement fields are part of the backend value, so two
    placements on the same (platform, model) warm disjoint
    :class:`~repro.engine.stepcost.DecodeCostTable` entries.
    """

    numa: NumaConfig = QUAD_FLAT
    numa_aware: bool = False
    hot_fraction: Optional[float] = None
    calibration: NumaCalibration = DEFAULT_NUMA_CALIBRATION
    cores: Optional[int] = None
    inner: ExecutionBackend = BaselineBackend()

    def __post_init__(self) -> None:
        if self.hot_fraction is not None and \
                not 0 <= self.hot_fraction <= 1:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}")
        if self.cores is not None:
            require_positive(self.cores, "cores")

    # -- memory system ------------------------------------------------------

    def numa_model(self, platform: Platform) -> NumaModel:
        return NumaModel(platform, self.numa, self.calibration,
                         numa_aware=self.numa_aware, cores=self.cores)

    def tier_bandwidth(self, platform: Platform,
                       footprint_bytes: float) -> float:
        model = self.numa_model(platform)
        if self.hot_fraction is not None:
            return model.hot_cold_bandwidth(self.hot_fraction)
        return model.effective_bandwidth(footprint_bytes)

    def check_platform(self, platform: Platform) -> None:
        # NumaModel refuses a GPU and a core count beyond the platform's.
        self.numa_model(platform)
        super().check_platform(platform)

    @property
    def label(self) -> str:
        tag = self.numa.label
        if self.numa_aware:
            tag += "-aware"
        if self.hot_fraction is not None:
            tag += f"-hot{self.hot_fraction:g}"
        return f"{self.inner.label}-{tag}"


# The hybrid backend's GPU-side executor and priced prefill legs are
# pure functions of frozen inputs; memoized here and dropped by
# clear_backend_op_caches (wired into repro.experiments.clear_caches).

_HYBRID_EXECUTORS: dict = {}


def _hybrid_gpu_executor(gpu: Platform, dtype: DType):
    # Keyed by name: Platform carries a tier list and is unhashable.
    key = (gpu.name, dtype)
    executor = _HYBRID_EXECUTORS.get(key)
    if executor is None:
        bandwidth = gpu.peak_memory_bandwidth * gpu.stream_efficiency
        executor = OperatorExecutor(gpu, BaselineBackend(dtype), bandwidth)
        _HYBRID_EXECUTORS[key] = executor
    return executor


@functools.lru_cache(maxsize=4096)
def _hybrid_prefill_leg(backend: "HybridBackend", model: ModelConfig,
                        batch_size: int, input_len: int) -> float:
    executor = _hybrid_gpu_executor(backend.gpu, backend.dtype)
    transfer = transfer_model_for(backend.gpu, backend.calibration)
    streamed = hybrid_streamed_weight_bytes(
        backend.weight_bytes(model), backend.gpu, backend.calibration)
    time_s, _, _ = gpu_prefill_leg(
        executor, transfer, backend.calibration, model, batch_size,
        input_len, streamed, kv_to_host=True)
    return time_s


@dataclasses.dataclass(frozen=True, eq=False)
class HybridBackend(WrapperBackend):
    """CPU–GPU hybrid execution: GPU prefill, CPU decode (Section VI, opt. 2).

    Prefill — compute-bound, where the GPU wins — runs on *gpu*: the
    dense prefill graph priced on a GPU executor, non-resident weights
    streamed over PCIe (the offload policy's residency budget), and the
    freshly produced prompt K/V always handed off to host memory, since
    decode runs on the CPU against host-resident KV. The whole GPU leg
    is charged through :meth:`prefill_comm_s` as comm-as-wall-time
    (the backend's prefill op graph is empty), priced by the same
    :func:`repro.offload.transfer.gpu_prefill_leg` the offload engine
    uses — so the transfer model and overlap behaviour match
    ``repro.offload`` by construction.

    Decode — bandwidth-bound, where the CPU's HBM competes — delegates
    entirely to the *inner* backend (plain, quantized, or NUMA-placed),
    so hybrid composes under ``TensorParallelBackend`` and over
    ``QuantizedBackend``/``NumaBackend`` like any other wrapper. So does
    the footprint: it is the CPU-side working set, because the host
    holds the full weights (the source of the PCIe stream), the KV
    cache and the decode activations.
    """

    gpu: Platform
    calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION
    inner: ExecutionBackend = BaselineBackend()

    def __post_init__(self) -> None:
        if not self.gpu.is_gpu:
            raise ValueError(
                f"HybridBackend needs a GPU prefill platform, got "
                f"{self.gpu.name}")

    # -- prefill: the GPU leg, charged as wall time -------------------------

    def prefill_ops(self, model: ModelConfig, batch_size: int,
                    input_len: int) -> Tuple[Op, ...]:
        return ()

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        return _hybrid_prefill_leg(self, model, batch_size, input_len)

    def check_platform(self, platform: Platform) -> None:
        if not platform.is_cpu:
            raise ValueError(
                f"HybridBackend decodes on a CPU host, got {platform.name}")
        super().check_platform(platform)

    @property
    def label(self) -> str:
        gpu_tag = self.gpu.name.split("-")[0].lower()
        return f"{self.inner.label}-hyb.{gpu_tag}"

    # Platform carries an (unhashable) memory-tier list, so the
    # dataclass-generated __eq__/__hash__ would fail; the GPU enters the
    # identity by name.
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HybridBackend)
                and (self.gpu.name, self.calibration, self.inner)
                == (other.gpu.name, other.calibration, other.inner))

    def __hash__(self) -> int:
        return hash((self.gpu.name, self.calibration, self.inner))


#: Spec tokens understood by :func:`parse_backend`, for CLI help text.
BACKEND_SPEC_TOKENS = ("bf16", "fp16", "fp32", "int8", "w8", "int4", "w4",
                       "w8a8", "numa:CONFIG[,aware][,hot=F]", "hybrid:GPU",
                       "tpN")

#: Exact-match vocabulary for did-you-mean suggestions: every literal
#: base token plus the wrapper prefixes and representative examples.
_KNOWN_TOKENS = ("bf16", "fp16", "fp32", "int8", "w8", "int4", "w4",
                 "w8a8", "tp2", "tp4", "numa:quad_flat", "numa:snc_flat",
                 "numa:quad_cache", "numa:snc_cache", "hybrid:a100",
                 "hybrid:h100")


def _spec_error(token: str, spec: str, detail: str = "") -> ValueError:
    """Unknown-token error with a did-you-mean suggestion."""
    hint = ""
    matches = difflib.get_close_matches(token, _KNOWN_TOKENS, n=2,
                                        cutoff=0.5)
    if matches:
        hint = f" (did you mean {' or '.join(repr(m) for m in matches)}?)"
    if detail:
        detail = f": {detail}"
    return ValueError(
        f"unknown backend token {token!r} in spec {spec!r}{detail}{hint}; "
        f"valid tokens: {', '.join(BACKEND_SPEC_TOKENS)}")


def _parse_numa_token(token: str, spec: str) -> "NumaBackend":
    """``numa:<config>[,aware][,hot=<fraction>]`` (wrapper, inner set later)."""
    body = token[len("numa:"):]
    parts = [p for p in body.split(",") if p]
    if not parts:
        raise ValueError(
            f"backend token {token!r} in spec {spec!r} names no NUMA "
            f"config; expected numa:<config> with config one of "
            f"{', '.join(c.label for c in KNOWN_CONFIGS)}")
    try:
        numa = get_config(parts[0])
    except KeyError as error:
        raise _spec_error(token, spec, str(error.args[0])) from error
    aware = False
    hot: Optional[float] = None
    for option in parts[1:]:
        if option == "aware":
            aware = True
        elif option.startswith("hot="):
            value = option[len("hot="):]
            try:
                hot = float(value)
            except ValueError:
                raise ValueError(
                    f"malformed option {option!r} in backend token "
                    f"{token!r}: hot= expects a fraction in [0, 1], got "
                    f"{value!r}") from None
            if not 0 <= hot <= 1:
                raise ValueError(
                    f"malformed option {option!r} in backend token "
                    f"{token!r}: hot= expects a fraction in [0, 1]")
        else:
            raise ValueError(
                f"unknown option {option!r} in backend token {token!r} "
                f"(spec {spec!r}); valid options: aware, hot=<fraction>")
    return NumaBackend(numa=numa, numa_aware=aware, hot_fraction=hot)


def _parse_hybrid_token(token: str, spec: str) -> "HybridBackend":
    """``hybrid:<gpu>`` (wrapper; GPU resolved via the platform registry)."""
    body = token[len("hybrid:"):]
    parts = [p for p in body.split(",") if p]
    if not parts:
        raise ValueError(
            f"backend token {token!r} in spec {spec!r} names no GPU; "
            f"expected hybrid:<gpu> (e.g. hybrid:a100)")
    if len(parts) > 1:
        raise ValueError(
            f"unknown option {parts[1]!r} in backend token {token!r} "
            f"(spec {spec!r}); hybrid takes only the GPU name")
    try:
        gpu = get_platform(parts[0])
    except KeyError as error:
        raise _spec_error(token, spec, str(error.args[0])) from error
    if not gpu.is_gpu:
        raise ValueError(
            f"backend token {token!r} in spec {spec!r}: {parts[0]!r} is "
            f"a CPU; hybrid needs a GPU prefill platform (a100, h100)")
    return HybridBackend(gpu=gpu)


def parse_backend(spec: str) -> ExecutionBackend:
    """Parse a CLI backend spec like ``int8-tp2`` or ``hybrid:a100``.

    Tokens (joined with ``-`` or ``+``): a base — ``bf16`` / ``fp16`` /
    ``fp32`` (plain dense at that dtype), ``int8``/``w8`` (weight-only
    INT8), ``int4``/``w4`` (weight-only INT4), ``w8a8`` (full INT8) —
    plus optional wrappers: ``numa:<config>[,aware][,hot=<fraction>]``
    (NUMA placement: paper config labels like ``snc_flat``, NUMA-aware
    allocation, hot/cold HBM-DDR traffic placement),
    ``hybrid:<gpu>`` (GPU prefill + CPU decode, e.g. ``hybrid:a100``),
    and ``tpN`` for tensor parallelism of degree N. Composition order
    is fixed regardless of token order: quantization innermost, then
    NUMA, then hybrid, then TP — e.g. ``int8-numa:snc_flat,aware-tp2``.
    ``tp2`` alone means BF16 + TP2, over UPI.

    Unknown tokens raise with a did-you-mean suggestion naming the
    valid vocabulary; malformed ``key=value`` options raise naming the
    offending token.
    """
    tokens = [t for t in spec.lower().replace("+", "-").split("-") if t]
    if not tokens:
        raise ValueError("empty backend spec")
    base: Optional[ExecutionBackend] = None
    numa: Optional[NumaBackend] = None
    hybrid: Optional[HybridBackend] = None
    tp_degree: Optional[int] = None
    for token in tokens:
        if token.startswith("tp") and token[2:].isdigit():
            if tp_degree is not None:
                raise ValueError(f"duplicate tp token in {spec!r}")
            tp_degree = int(token[2:])
            continue
        if token.startswith("numa:"):
            if numa is not None:
                raise ValueError(f"duplicate numa token in {spec!r}")
            numa = _parse_numa_token(token, spec)
            continue
        if token.startswith("hybrid:"):
            if hybrid is not None:
                raise ValueError(f"duplicate hybrid token in {spec!r}")
            hybrid = _parse_hybrid_token(token, spec)
            continue
        if base is not None:
            raise ValueError(f"more than one base backend in {spec!r}")
        if token in ("bf16", "fp16", "fp32"):
            base = BaselineBackend(parse_dtype(token))
        elif token in ("int8", "w8"):
            base = QuantizedBackend(
                QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT8))
        elif token in ("int4", "w4"):
            base = QuantizedBackend(
                QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT4))
        elif token == "w8a8":
            base = QuantizedBackend(QuantConfig(scheme=QuantScheme.FULL_INT8))
        else:
            raise _spec_error(token, spec)
    backend = base if base is not None else BaselineBackend()
    if numa is not None:
        backend = dataclasses.replace(numa, inner=backend)
    if hybrid is not None:
        backend = dataclasses.replace(hybrid, inner=backend)
    if tp_degree is not None:
        return TensorParallelBackend(tp=TPConfig(degree=tp_degree),
                                     inner=backend)
    return backend
