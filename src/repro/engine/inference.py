"""Inference simulation: prefill + autoregressive decode on one platform.

:class:`InferenceSimulator` is the library's main entry point for the
non-offloaded case (both CPUs, and GPUs whose memory holds the model).
It derives the platform's effective bandwidth and compute scale from the
backend's memory placement and the requested core count, builds the
operator graphs, prices them with the executor, and reports paper-style
metrics.
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
from repro.scaling.cores import CoreScalingModel
from repro.trace.spans import ENGINE_TRACK
from repro.trace.tracer import NOOP_TRACER, Tracer
from repro.utils.validation import require_positive


class MemoryCapacityError(RuntimeError):
    """Raised when a model + KV cache cannot fit the platform's memory.

    GPU callers should fall back to :mod:`repro.offload`; CPU callers hit
    this only for models beyond even CPU capacity (e.g. OPT-175B in BF16 on
    one socket).
    """


class InferenceSimulator:
    """Simulates LLM inference on one platform.

    Args:
        platform: Target platform (CPU or GPU).
        backend: Execution backend (quantized / tensor-parallel / NUMA
            placement / ...); ``None`` means plain dense execution at
            each request's dtype, placed quad_flat on a CPU.
        cores: CPU cores to use; ``None`` = one full socket (the paper's
            tuned setting, 48 on SPR / 32 on ICL).

    Raises:
        ValueError: If *backend* cannot run on *platform* (tensor
            parallelism on a GPU, or over more sockets than it has; NUMA
            placement on a GPU), if *cores* is set on a GPU, or if a
            backend that already spans sockets (``capacity_scale > 1``)
            meets *cores* that span them too.
    """

    def __init__(self, platform: Platform,
                 backend: Optional[ExecutionBackend] = None, *,
                 cores: Optional[int] = None):
        if backend is not None:
            backend.check_platform(platform)
        self.platform = platform
        self.backend = backend
        # Placement, bandwidth and capacity do not depend on the dtype.
        self._memory = backend if backend is not None else BaselineBackend()
        if platform.is_cpu:
            self._scaling = CoreScalingModel(
                platform, cores or platform.topology.cores_per_socket)
            if self._memory.capacity_scale > 1 and self._scaling.spans_sockets:
                raise ValueError(
                    f"{self._scaling.cores} cores span the sockets of "
                    f"{platform.name}, which backend {backend.label} "
                    f"already spans; use one socket's cores")
        elif cores is not None:
            raise ValueError(
                f"a core count (cores={cores}) applies to CPUs, got "
                f"{platform.name}")
        else:
            self._scaling = None

    def numa_model(self) -> Optional[NumaModel]:
        """The NUMA placement that prices this simulator's runs (CPU)."""
        return self._memory.numa_model(self.platform)

    @property
    def config_label(self) -> str:
        """Human-readable configuration tag for results."""
        if self.platform.is_cpu:
            return f"{self.numa_model().config.label}/{self._scaling.cores}c"
        return "gpu"

    # -- capacity ----------------------------------------------------------

    def memory_capacity(self) -> float:
        """Usable memory bytes under the current configuration.

        The backend's capacity, doubled when the cores span sockets.
        """
        capacity = self._memory.memory_capacity_bytes(self.platform)
        if self.platform.is_cpu and self._scaling.spans_sockets:
            capacity *= 2
        return capacity

    def _backend_for(self, request: InferenceRequest) -> ExecutionBackend:
        """Configured backend, or the plain baseline at the request dtype."""
        if self.backend is not None:
            return self.backend
        return BaselineBackend(request.dtype)

    def fits(self, model: ModelConfig, request: InferenceRequest) -> bool:
        """Whether the request's peak footprint fits this configuration."""
        backend = self._backend_for(request)
        footprint = backend.footprint_bytes(model, request)
        return footprint <= self.memory_capacity() * backend.capacity_scale

    # -- bandwidth / compute derivation -------------------------------------

    def effective_bandwidth(self, footprint_bytes: float) -> float:
        """Sustained kernel bandwidth for this configuration, bytes/s.

        The backend's, scaled by the core count on a CPU.
        """
        bandwidth = self._memory.tier_bandwidth(self.platform,
                                                footprint_bytes)
        if self.platform.is_cpu:
            return bandwidth * self._scaling.bandwidth_factor
        return bandwidth

    def compute_scale(self) -> float:
        """Multiplier on the platform's reference peak FLOPS."""
        if self.platform.is_cpu:
            return self._scaling.compute_factor
        return 1.0

    def _executor(self, model: ModelConfig, request: InferenceRequest,
                  footprint: Optional[float] = None) -> OperatorExecutor:
        backend = self._backend_for(request)
        if footprint is None:
            footprint = backend.footprint_bytes(model, request)
        return OperatorExecutor(
            self.platform, backend,
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
        backend = self._backend_for(request)
        footprint = backend.footprint_bytes(model, request)
        capacity = self.memory_capacity() * backend.capacity_scale
        if footprint > capacity:
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
             backend: Optional[ExecutionBackend] = None, *,
             cores: Optional[int] = None) -> InferenceResult:
    """One-call convenience wrapper: simulate *model* x *platform*."""
    return InferenceSimulator(platform, backend, cores=cores).run(
        model, request)
