"""Offloading-based LLM inference engine (the FlexGen substitute).

Simulates a GPU serving a model larger than its memory: resident weights
compute from HBM, non-resident weights stream over PCIe every pass, the KV
cache optionally lives in host memory with attention computed host-side.
Produces the same headline metrics as the in-memory engine plus the
execution-time breakdown of Fig. 18 (compute vs. data loading).
"""

import dataclasses
import math
from typing import Dict, List

from repro.engine.backend import BaselineBackend
from repro.engine.executor import OperatorExecutor
from repro.engine.request import InferenceRequest
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.models.layers import Op, OpKind
from repro.offload.policy import DEFAULT_OFFLOAD_CALIBRATION, OffloadCalibration
from repro.offload.transfer import (
    TransferModel,
    gpu_prefill_leg,
    transfer_model_for,
)
from repro.offload.zigzag import amortized_transfer_time, exposed_transfer_time

_ATTENTION_KINDS = (OpKind.ATTN_QK, OpKind.ATTN_PV, OpKind.SOFTMAX)


@dataclasses.dataclass(frozen=True)
class Placement:
    """Resolved data placement for one (model, request, GPU) triple.

    Attributes:
        resident_weight_bytes: Weights pinned in GPU memory.
        streamed_weight_bytes: Weights streamed over PCIe per full pass.
        kv_on_gpu: Whether the KV cache lives in GPU memory.
        kv_bytes_peak: Peak KV-cache size over the request.
    """

    resident_weight_bytes: float
    streamed_weight_bytes: float
    kv_on_gpu: bool
    kv_bytes_peak: float


def make_placement(model: ModelConfig, request: InferenceRequest,
                   gpu: Platform,
                   calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION) -> Placement:
    """Resolve the GPU/CPU split for an offloaded request.

    Sized on the plain BF16 base the offload engine prices with.
    """
    if not gpu.is_gpu:
        raise ValueError(f"{gpu.name} is not a GPU")
    base = BaselineBackend()
    weights = base.weight_bytes(model)
    kv_peak = (base.kv_bytes_per_token(model) * request.max_seq_len
               * request.batch_size)
    kv_on_gpu = kv_peak <= gpu.memory_capacity * calibration.kv_gpu_capacity_fraction
    weight_budget = gpu.memory_capacity * calibration.weight_residency_fraction
    if kv_on_gpu:
        weight_budget = max(0.0, weight_budget - kv_peak)
    resident = min(weights, weight_budget)
    return Placement(
        resident_weight_bytes=resident,
        streamed_weight_bytes=weights - resident,
        kv_on_gpu=kv_on_gpu,
        kv_bytes_peak=kv_peak,
    )


@dataclasses.dataclass(frozen=True)
class OffloadResult:
    """Simulated offloaded execution of one request.

    Exposes the same metric surface as
    :class:`~repro.engine.results.InferenceResult` (ttft_s, tpot_s, e2e_s,
    throughputs) plus the loading/compute breakdown of Fig. 18.

    Attributes:
        prefill_time_s / decode_time_s: Critical-path phase times.
        loading_time_s: Total PCIe busy time (overlapped or not — how a
            profiler's "data loading" bucket counts it).
        compute_time_s: Total GPU + host-attention busy time.
    """

    model_name: str
    platform_name: str
    request: InferenceRequest
    placement: Placement
    prefill_time_s: float
    decode_time_s: float
    loading_time_s: float
    compute_time_s: float

    @property
    def ttft_s(self) -> float:
        """Time to first token."""
        return self.prefill_time_s

    @property
    def tpot_s(self) -> float:
        """Mean time per output token during decode."""
        if self.request.decode_steps == 0:
            return 0.0
        return self.decode_time_s / self.request.decode_steps

    @property
    def e2e_s(self) -> float:
        """End-to-end latency."""
        return self.prefill_time_s + self.decode_time_s

    @property
    def e2e_throughput(self) -> float:
        """Generated tokens per second."""
        return self.request.total_generated_tokens / self.e2e_s

    @property
    def prefill_throughput(self) -> float:
        """Prompt tokens processed per second during prefill."""
        return self.request.batch_size * self.request.input_len / self.ttft_s

    @property
    def decode_throughput(self) -> float:
        """Tokens generated per second during decode."""
        if self.decode_time_s == 0:
            return 0.0
        return (self.request.batch_size * self.request.decode_steps
                / self.decode_time_s)

    @property
    def loading_share(self) -> float:
        """Fraction of (loading + compute) time spent on PCIe data loading.

        This is Fig. 18's y-axis: the breakdown buckets PCIe busy time
        against computation time.
        """
        total = self.loading_time_s + self.compute_time_s
        return self.loading_time_s / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline metrics (matches InferenceResult.summary)."""
        return {
            "ttft_s": self.ttft_s,
            "tpot_s": self.tpot_s,
            "e2e_s": self.e2e_s,
            "e2e_throughput": self.e2e_throughput,
            "prefill_throughput": self.prefill_throughput,
            "decode_throughput": self.decode_throughput,
        }


class OffloadSimulator:
    """Simulates offloading-based inference on one GPU.

    Prices on the plain BF16 base (:class:`BaselineBackend`), whose
    op graphs and dtype every leg reads.

    Args:
        gpu: GPU platform (must define a host link).
        calibration: Offloading behaviour constants.
    """

    def __init__(self, gpu: Platform,
                 calibration: OffloadCalibration = DEFAULT_OFFLOAD_CALIBRATION):
        if not gpu.is_gpu:
            raise ValueError(f"{gpu.name} is not a GPU")
        self.gpu = gpu
        self.calibration = calibration
        self.transfer: TransferModel = transfer_model_for(gpu, calibration)
        self.executor = OperatorExecutor(
            gpu, BaselineBackend(),
            gpu.peak_memory_bandwidth * gpu.stream_efficiency)

    def _split_ops(self, ops: List[Op]):
        attention = [op for op in ops if op.kind in _ATTENTION_KINDS]
        other = [op for op in ops if op.kind not in _ATTENTION_KINDS]
        return attention, other

    def _host_attention_time(self, attention_ops: List[Op]) -> float:
        """Host-side attention over the offloaded KV cache (bandwidth-bound)."""
        total_bytes = sum(op.memory_bytes for op in attention_ops)
        return total_bytes / self.calibration.host_attention_bw

    def _activation_hop_bytes(self, model: ModelConfig,
                              request: InferenceRequest) -> float:
        """Per-step activation round trips when attention runs on the host.

        The hidden state crosses PCIe twice per layer (GPU -> host before
        attention, host -> GPU after).
        """
        nb = self.executor.backend.dtype.nbytes
        return float(2 * model.n_layers * request.batch_size
                     * model.d_model * nb)

    def run(self, model: ModelConfig, request: InferenceRequest,
            exact: bool = False) -> OffloadResult:
        """Simulate the full offloaded request.

        By default the decode phase is priced in closed form: the GPU
        compute series comes from the probe-verified
        :meth:`~repro.engine.executor.OperatorExecutor.time_decode_series`
        analysis and the host-attention byte curve is affine in the KV
        length (verified against the op graph at the endpoints, with a
        per-step fallback if the affine assumption ever breaks).
        ``exact=True`` keeps the original per-step loop; the two agree
        to ≤1e-9 relative (pinned by ``tests/test_backend_numa_hybrid.py``).
        """
        placement = make_placement(model, request, self.gpu, self.calibration)
        executor = self.executor

        # --- prefill: stream non-resident weights once, overlap with compute.
        prefill_time, prefill_transfer, prefill_compute = gpu_prefill_leg(
            executor, self.transfer, self.calibration, model,
            request.batch_size, request.input_len,
            placement.streamed_weight_bytes,
            kv_to_host=not placement.kv_on_gpu)

        loading_total = prefill_transfer
        compute_total = prefill_compute

        # --- decode: stream weights every step, amortized by zig-zag reuse.
        if exact or request.decode_steps == 0:
            decode_time, decode_loading, decode_compute = \
                self._decode_stepped(model, request, placement, executor)
        else:
            decode_time, decode_loading, decode_compute = \
                self._decode_closed_form(model, request, placement, executor)
        loading_total += decode_loading
        compute_total += decode_compute

        return OffloadResult(
            model_name=model.name,
            platform_name=self.gpu.name,
            request=request,
            placement=placement,
            prefill_time_s=prefill_time,
            decode_time_s=decode_time,
            loading_time_s=loading_total,
            compute_time_s=compute_total,
        )

    def _decode_stepped(self, model: ModelConfig, request: InferenceRequest,
                        placement: Placement, executor: OperatorExecutor):
        """The original per-step decode loop (``exact=True`` reference)."""
        layers = model.n_layers
        decode_time = 0.0
        loading_total = 0.0
        compute_total = 0.0
        for step in range(request.decode_steps):
            kv_len = request.input_len + step
            ops = executor.backend.decode_ops(model, request.batch_size,
                                              kv_len)
            attention, other = self._split_ops(ops)
            gpu_compute = sum(t.time_s for t in executor.time_ops(other))
            step_transfer_raw = self.transfer.time(
                placement.streamed_weight_bytes, layer_transfers=layers)
            if placement.kv_on_gpu:
                gpu_compute += sum(
                    t.time_s for t in executor.time_ops(attention))
                host_compute = 0.0
            else:
                host_compute = self._host_attention_time(attention)
                step_transfer_raw += self.transfer.time(
                    self._activation_hop_bytes(model, request),
                    layer_transfers=2 * layers)
            step_transfer = amortized_transfer_time(
                step_transfer_raw, request.batch_size, self.calibration)
            compute = gpu_compute + host_compute
            decode_time += compute + exposed_transfer_time(
                step_transfer, compute, self.calibration)
            loading_total += step_transfer
            compute_total += compute
        return decode_time, loading_total, compute_total

    def _decode_closed_form(self, model: ModelConfig,
                            request: InferenceRequest,
                            placement: Placement,
                            executor: OperatorExecutor):
        """Whole-phase decode pricing without the per-step loop.

        Per-step PCIe transfer is KV-independent (the streamed weight
        block and, host case, the activation hops are fixed), so only
        the compute series varies with the KV length:

        * ``kv_on_gpu`` — every op runs on the GPU; the per-step series
          is exactly what ``time_decode_series`` prices in closed form;
        * KV on host — the non-attention GPU time is KV-independent
          (priced once) and the host-attention bytes are affine in kv
          (slope/intercept fitted from the first two steps and verified
          at the last; any mismatch falls back to the step loop).

        The exposed-transfer max() then runs over the series, and both
        totals are ``math.fsum`` sums, correctly rounded.
        """
        steps = request.decode_steps
        batch = request.batch_size
        layers = model.n_layers
        kv_start = request.input_len
        step_transfer_raw = self.transfer.time(
            placement.streamed_weight_bytes, layer_transfers=layers)

        if placement.kv_on_gpu:
            compute, = executor.time_decode_series(model, batch, kv_start,
                                                   kv_start + steps)
        else:
            ops = executor.backend.decode_ops(model, batch, kv_start)
            attention, other = self._split_ops(ops)
            other_time = sum(t.time_s for t in executor.time_ops(other))

            def attn_bytes(kv_len: int) -> float:
                step_ops = executor.backend.decode_ops(model, batch, kv_len)
                return sum(op.memory_bytes for op in step_ops
                           if op.kind in _ATTENTION_KINDS)

            b0 = sum(op.memory_bytes for op in attention)
            if steps > 1:
                slope = attn_bytes(kv_start + 1) - b0
                predicted_last = b0 + slope * (steps - 1)
                actual_last = attn_bytes(kv_start + steps - 1)
                if abs(predicted_last - actual_last) > \
                        1e-9 * max(actual_last, 1.0):
                    # Affine assumption broke (a model whose attention
                    # byte curve has breakpoints): price honestly.
                    return self._decode_stepped(model, request, placement,
                                                executor)
            else:
                slope = 0.0
            host_bw = self.calibration.host_attention_bw
            compute = [other_time + (b0 + slope * i) / host_bw
                       for i in range(steps)]
            step_transfer_raw += self.transfer.time(
                self._activation_hop_bytes(model, request),
                layer_transfers=2 * layers)

        step_transfer = amortized_transfer_time(step_transfer_raw, batch,
                                                self.calibration)
        eta = self.calibration.overlap_efficiency
        decode_time = math.fsum([c + max(0.0, step_transfer - eta * c)
                                 for c in compute])
        compute_total = math.fsum(compute)
        return decode_time, steps * step_transfer, compute_total
