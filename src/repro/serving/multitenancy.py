"""Multi-tenant bandwidth-contention model.

The paper's closing argument for CPU inference is datacenter utilization:
"leveraging CPU computation resources can enhance overall hardware
utilization in data centers where GPU resources are fully occupied".
Co-locating several models on one socket is how that plays out, and the
dominant interaction is **memory-bandwidth contention**: decode phases of
all tenants stream concurrently, so each sees a slice of the socket's
sustained bandwidth, while compute mostly partitions cleanly with cores.

The model: with ``n`` tenants, each runs with its core share
(``cores / n``) and bandwidth share (``bandwidth / n`` plus a small
efficiency loss from interleaved access streams). Memory-bound phases
slow ~linearly in tenant count; compute-bound phases degrade only through
the core split — the asymmetry this module quantifies.
"""

import dataclasses
from typing import List

from repro.engine.backend import NumaBackend
from repro.engine.executor import OperatorExecutor
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.engine.results import (
    InferenceResult,
    merge_phase_stats,
    phase_stats_from_timings,
)
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.utils.validation import require_positive

#: Bandwidth efficiency lost to interleaved tenant access streams (row
#: buffer conflicts, prefetcher confusion) — per-tenant share is
#: bandwidth/n times this factor.
CONTENTION_EFFICIENCY = 0.92


@dataclasses.dataclass(frozen=True)
class TenantSlowdown:
    """Per-tenant slowdown under co-location.

    Attributes:
        tenants: Co-located tenant count.
        solo: The tenant's solo-run result.
        shared: The tenant's result under contention.
    """

    tenants: int
    solo: InferenceResult
    shared: InferenceResult

    @property
    def e2e_slowdown(self) -> float:
        """Shared E2E over solo E2E (>= 1)."""
        return self.shared.e2e_s / self.solo.e2e_s

    @property
    def decode_slowdown(self) -> float:
        """Memory-bound phase slowdown (tracks the bandwidth split)."""
        return self.shared.tpot_s / self.solo.tpot_s

    @property
    def prefill_slowdown(self) -> float:
        """Compute-bound phase slowdown (tracks the core split)."""
        return self.shared.ttft_s / self.solo.ttft_s

    @property
    def aggregate_throughput_gain(self) -> float:
        """Total tokens/s of n contended tenants over one solo tenant."""
        return self.tenants * self.shared.e2e_throughput / \
            self.solo.e2e_throughput


class MultiTenantSimulator:
    """Simulates n identical tenants sharing one CPU socket.

    Args:
        platform: CPU platform.
        tenants: Co-located tenant count (cores and bandwidth split evenly).
    """

    def __init__(self, platform: Platform, tenants: int):
        if not platform.is_cpu or platform.topology is None:
            raise ValueError(f"{platform.name} is not a CPU platform")
        require_positive(tenants, "tenants")
        cores = platform.topology.cores_per_socket
        if tenants > cores:
            raise ValueError(f"{tenants} tenants exceed {cores} cores")
        self.platform = platform
        self.tenants = tenants
        self._solo = InferenceSimulator(platform)
        self._shared = InferenceSimulator(
            platform, NumaBackend(cores=max(1, cores // tenants)))

    def _shared_executor(self, model: ModelConfig,
                         request: InferenceRequest) -> OperatorExecutor:
        # Bandwidth: all tenants' cores issue misses concurrently, so the
        # relevant saturation point is the FULL socket's — each tenant gets
        # an even share of the solo (48-core) bandwidth, minus the
        # interleaved-stream contention loss. Using the per-tenant core
        # count's saturation curve here would double-count the split.
        solo_bw = self._solo._executor(model, request).bandwidth
        if self.tenants > 1:
            shared_bw = (solo_bw / self.tenants) * CONTENTION_EFFICIENCY
        else:
            shared_bw = solo_bw
        return OperatorExecutor(self.platform, self._shared.backend,
                                bandwidth=shared_bw,
                                compute_scale=self._shared.compute_scale())

    def _run_shared(self, model: ModelConfig,
                    request: InferenceRequest) -> InferenceResult:
        executor = self._shared_executor(model, request)
        backend = executor.backend
        prefill = phase_stats_from_timings(
            "prefill", executor.time_ops(backend.prefill_ops(
                model, request.batch_size, request.input_len)))
        decode_phases = []
        for step in range(request.decode_steps):
            decode_phases.append(phase_stats_from_timings(
                f"decode[{step}]", executor.time_ops(backend.decode_ops(
                    model, request.batch_size, request.input_len + step))))
        decode = (merge_phase_stats("decode", decode_phases)
                  if decode_phases
                  else phase_stats_from_timings("decode", []))
        return InferenceResult(
            model_name=model.name,
            platform_name=self.platform.name,
            request=request,
            prefill=prefill,
            decode=decode,
            config_label=f"{self.tenants}tenants",
        )

    def evaluate(self, model: ModelConfig,
                 request: InferenceRequest = InferenceRequest()
                 ) -> TenantSlowdown:
        """Solo vs contended execution for one tenant."""
        solo = self._solo.run(model, request)
        shared = self._run_shared(model, request)
        return TenantSlowdown(tenants=self.tenants, solo=solo, shared=shared)


def tenancy_sweep(platform: Platform, model: ModelConfig,
                  request: InferenceRequest = InferenceRequest()
                  ) -> List[TenantSlowdown]:
    """Evaluate 1, 2, 4 and 8 tenants."""
    return [MultiTenantSimulator(platform, n).evaluate(model, request)
            for n in (1, 2, 4, 8)]
