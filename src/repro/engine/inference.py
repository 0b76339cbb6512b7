"""Inference simulation: prefill + autoregressive decode on one platform.

:class:`InferenceSimulator` is the library's main entry point for the
non-offloaded case (both CPUs, and GPUs whose memory holds the model).
It derives the platform's effective bandwidth and compute scale from the
backend's placement (on a CPU: memory mode, clustering and core count),
builds the operator graphs, prices them with the executor, and reports
paper-style metrics.
"""

import dataclasses
from typing import Optional

from repro.engine.backend import BaselineBackend, ExecutionBackend
from repro.engine.executor import OperatorExecutor
from repro.engine.request import InferenceRequest
from repro.engine.results import (
    InferenceResult,
    PhaseStats,
    merge_phase_stats,
    phase_stats_from_timings,
)
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.numa.model import NumaModel
from repro.trace.spans import ENGINE_TRACK
from repro.trace.tracer import NOOP_TRACER, Tracer
from repro.utils.validation import require_positive


class MemoryCapacityError(RuntimeError):
    """Raised when a run's footprint fails :meth:`InferenceSimulator.fits`.

    On a CPU this means a model beyond even CPU capacity (e.g. OPT-175B
    in BF16 on one socket). On a GPU, ``run_inference`` offloads a plain
    request instead, and raises this for an explicit backend, since
    offloading prices only the plain BF16 base.
    """


class InferenceSimulator:
    """Simulates LLM inference on one platform.

    Args:
        platform: Target platform (CPU or GPU).
        backend: Execution backend (quantized / tensor-parallel / CPU
            placement / ...), which alone sets the dtype and, on a CPU,
            the placement (:class:`NumaBackend`: memory mode, clustering
            and core count); ``None`` means :class:`BaselineBackend`
            (plain dense BF16, placed quad_flat on one CPU socket).

    Raises:
        ValueError: If *backend* cannot run on *platform* (tensor
            parallelism on a GPU, over more sockets than it has, or over
            cores that already span them; a placement on a GPU; more
            cores than the CPU has).
    """

    def __init__(self, platform: Platform,
                 backend: Optional[ExecutionBackend] = None):
        if backend is None:
            backend = BaselineBackend()
        backend.check_platform(platform)
        self.platform = platform
        self.backend = backend
        self._placement = backend.numa_model(platform)

    def numa_model(self) -> Optional[NumaModel]:
        """The placement that prices this simulator's runs (CPU)."""
        return self._placement

    @property
    def config_label(self) -> str:
        """Human-readable configuration tag for results."""
        placement = self._placement
        if placement is not None:
            return f"{placement.config.label}/{placement.cores}c"
        return "gpu"

    # -- capacity ----------------------------------------------------------

    def memory_capacity(self) -> float:
        """Usable memory bytes under the current configuration."""
        return self.backend.memory_capacity_bytes(self.platform)

    def fits(self, model: ModelConfig, request: InferenceRequest) -> bool:
        """Whether the request's peak footprint fits (the only such check)."""
        footprint = self.backend.footprint_bytes(model, request)
        return footprint <= (self.memory_capacity()
                             * self.backend.capacity_scale)

    # -- bandwidth / compute derivation -------------------------------------

    def effective_bandwidth(self, footprint_bytes: float) -> float:
        """Sustained kernel bandwidth for this configuration, bytes/s."""
        return self.backend.tier_bandwidth(self.platform, footprint_bytes)

    def compute_scale(self) -> float:
        """Multiplier on the platform's reference peak FLOPS."""
        placement = self._placement
        return 1.0 if placement is None else placement.compute_factor

    def _executor(self, model: ModelConfig, request: InferenceRequest,
                  footprint: Optional[float] = None) -> OperatorExecutor:
        if footprint is None:
            footprint = self.backend.footprint_bytes(model, request)
        return OperatorExecutor(
            self.platform, self.backend,
            bandwidth=self.effective_bandwidth(footprint),
            compute_scale=self.compute_scale())

    def replica_executor(self, model: ModelConfig,
                         max_batch: int) -> OperatorExecutor:
        """The executor a serving replica of *model* prices with.

        A replica is sized once, at a fixed request shape (batch
        *max_batch*, 512 in / 64 out): that shape's footprint must fit
        and derives the bandwidth every iteration is priced at.

        Raises:
            MemoryCapacityError: If the sizing shape does not fit.
        """
        require_positive(max_batch, "max_batch")
        sizing = InferenceRequest(batch_size=max_batch, input_len=512,
                                  output_len=64)
        if not self.fits(model, sizing):
            # Serving replicas model in-memory execution only: a GPU
            # replica whose model exceeds device memory is refused.
            raise MemoryCapacityError(
                f"{model.name} does not fit {self.platform.name} at "
                f"batch {max_batch}; serving replicas model in-memory "
                "execution only")
        return self._executor(model, sizing)

    # -- simulation ----------------------------------------------------------

    def run(self, model: ModelConfig, request: InferenceRequest,
            exact: bool = False,
            tracer: Tracer = NOOP_TRACER) -> InferenceResult:
        """Simulate the full request; raises MemoryCapacityError if too big.

        By default the decode phase is priced analytically with
        :meth:`OperatorExecutor.time_decode_range` — per-op decode time is
        piecewise affine in ``kv_len``, so the whole phase sums in
        O(#ops + #breakpoints) instead of O(steps x ops x engines).
        ``exact=True`` keeps the original per-step loop; both agree to
        within floating-point noise (≤1e-9 relative, enforced by tests).

        A recording *tracer* receives phase spans on the ``engine`` track
        (t=0 at prefill start): one ``prefill`` span, one ``decode`` span
        with compute/memory busy attribution, and — under ``exact=True``
        only, where per-step times exist — one ``decode[i]`` span per
        token.
        """
        backend = self.backend
        footprint = backend.footprint_bytes(model, request)
        if not self.fits(model, request):
            capacity = self.memory_capacity() * backend.capacity_scale
            raise MemoryCapacityError(
                f"{model.name} needs {footprint / 1e9:.1f} GB but "
                f"{self.platform.name} ({self.config_label}) has "
                f"{capacity / 1e9:.1f} GB; use the offloading "
                f"engine for over-capacity GPU runs")

        executor = self._executor(model, request, footprint)
        prefill_timings = executor.time_prefill_ops(
            model, request.batch_size, request.input_len)
        prefill = phase_stats_from_timings("prefill", prefill_timings)
        prefill_comm = executor.prefill_comm_s(
            model, request.batch_size, request.input_len)
        if prefill_comm:
            # Communication (TP allreduce) is wall time outside the
            # roofline legs.
            prefill = dataclasses.replace(
                prefill, time_s=prefill.time_s + prefill_comm)

        steps = request.decode_steps
        decode_comm = executor.decode_comm_s(model, request.batch_size)
        if steps == 0:
            decode = phase_stats_from_timings("decode", [])
        elif exact:
            decode_phases = []
            step_clock = prefill.time_s
            for step in range(steps):
                kv_len = request.input_len + step
                step_timings = executor.time_ops(
                    executor.backend.decode_ops(model, request.batch_size,
                                                kv_len))
                step_stats = phase_stats_from_timings(f"decode[{step}]",
                                                      step_timings)
                if decode_comm:
                    step_stats = dataclasses.replace(
                        step_stats, time_s=step_stats.time_s + decode_comm)
                decode_phases.append(step_stats)
                if tracer.enabled:
                    tracer.span(ENGINE_TRACK, f"decode[{step}]", step_clock,
                                step_clock + step_stats.time_s,
                                category="engine",
                                args={"kv_len": kv_len,
                                      "batch_size": request.batch_size})
                step_clock += step_stats.time_s
            decode = merge_phase_stats("decode", decode_phases)
        else:
            rng = executor.time_decode_range(
                model, request.batch_size, request.input_len,
                request.input_len + steps)
            decode = PhaseStats(
                name="decode",
                time_s=rng.time_s,
                flops=rng.flops,
                weight_bytes=rng.weight_bytes,
                activation_bytes=rng.activation_bytes,
                kv_bytes=rng.kv_read_bytes + rng.kv_write_bytes,
                compute_busy_s=rng.compute_s,
                memory_busy_s=rng.memory_s,
                op_times=dict(rng.op_times),
            )

        if tracer.enabled:
            tracer.span(ENGINE_TRACK, "prefill", 0.0, prefill.time_s,
                        category="engine",
                        args={"batch_size": request.batch_size,
                              "input_len": request.input_len,
                              "compute_busy_s": prefill.compute_busy_s,
                              "memory_busy_s": prefill.memory_busy_s})
            tracer.span(ENGINE_TRACK, "decode", prefill.time_s,
                        prefill.time_s + decode.time_s, category="engine",
                        args={"batch_size": request.batch_size,
                              "steps": steps,
                              "compute_busy_s": decode.compute_busy_s,
                              "memory_busy_s": decode.memory_busy_s})

        return InferenceResult(
            model_name=model.name,
            platform_name=self.platform.name,
            request=request,
            prefill=prefill,
            decode=decode,
            config_label=self.config_label,
        )


def simulate(platform: Platform, model: ModelConfig,
             request: InferenceRequest = InferenceRequest(),
             backend: Optional[ExecutionBackend] = None) -> InferenceResult:
    """One-call convenience wrapper: simulate *model* x *platform*."""
    return InferenceSimulator(platform, backend).run(model, request)
