"""Fleet provisioning: how many devices for a target load, at what cost?

The deployment question the paper's comparisons ultimately serve: given a
request rate and latency SLOs, how many SPR sockets — or how many GPUs —
must you buy? The planner measures each candidate's max sustainable rate
(binary search over the serving simulator), sizes the fleet by ceiling
division with headroom, and prices it with the listing-price proxies.
"""

import dataclasses
import math
from typing import List, Optional

from repro.analysis.cost import list_price
from repro.engine.inference import DEFAULT_ENGINE_CONFIG, EngineConfig
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.serving.scheduler import BatchingSimulator, check_batching_policy
from repro.serving.slo import SLO, max_sustainable_rate
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class ProvisioningOption:
    """One platform's fleet sizing for the target load.

    Attributes:
        platform: Platform name.
        rate_per_device: Max sustainable request rate per device under the
            SLO (0 if the device cannot meet the SLO at any rate).
        devices_needed: Fleet size including headroom (None if infeasible).
        fleet_cost_usd: Listing-price total (None if infeasible).
    """

    platform: str
    rate_per_device: float
    devices_needed: Optional[int]
    fleet_cost_usd: Optional[float]

    @property
    def feasible(self) -> bool:
        """Whether this platform can meet the SLO at all."""
        return self.devices_needed is not None


@dataclasses.dataclass(frozen=True)
class ProvisioningPlan:
    """Ranked fleet options for one (model, load, SLO) requirement."""

    target_rate: float
    slo: SLO
    options: List[ProvisioningOption]

    @property
    def cheapest(self) -> ProvisioningOption:
        """Lowest-cost feasible option (raises if none)."""
        feasible = [option for option in self.options if option.feasible]
        if not feasible:
            raise RuntimeError("no platform meets the SLO")
        return min(feasible, key=lambda option: option.fleet_cost_usd)


class ProvisioningPlanner:
    """Sizes fleets across candidate platforms.

    Args:
        model: Served model.
        max_batch: Per-device batching limit.
        policy: Batching policy used for capacity measurement
            ("static", "continuous" or "chunked").
        headroom: Capacity margin (0.2 = provision for 1.2x the target).
        config: CPU engine configuration.
    """

    def __init__(self, model: ModelConfig, max_batch: int = 8,
                 policy: str = "continuous", headroom: float = 0.2,
                 config: EngineConfig = DEFAULT_ENGINE_CONFIG):
        if headroom < 0:
            raise ValueError(f"headroom must be >= 0, got {headroom}")
        self.model = model
        self.max_batch = max_batch
        self.policy = check_batching_policy(policy)
        self.headroom = headroom
        self.config = config

    def _sequential_rate(self, platform: Platform, slo: SLO) -> float:
        """Fallback capacity when the in-memory serving simulator refuses.

        Over-capacity GPUs serve through the offloading engine one request
        at a time; the sustainable rate is the reciprocal of a
        representative request's E2E, provided that request meets the SLO
        at all.
        """
        from repro.core.runner import run_inference
        from repro.engine.request import InferenceRequest
        request = InferenceRequest(batch_size=1, input_len=144,
                                   output_len=40)
        try:
            result = run_inference(platform, self.model, request,
                                   self.config)
        except Exception:
            return 0.0
        if result.ttft_s > slo.ttft_s or result.tpot_s > slo.tpot_s:
            return 0.0
        return 1.0 / result.e2e_s

    def size_option(self, platform: Platform, target_rate: float,
                    slo: SLO) -> ProvisioningOption:
        """Fleet size and cost for one platform (infeasible -> None)."""
        require_positive(target_rate, "target_rate")
        try:
            simulator = BatchingSimulator(platform, self.model,
                                          self.max_batch, self.config)
            per_device = max_sustainable_rate(simulator, slo,
                                              policy=self.policy)
            if per_device <= 0:
                # Load-dependent failure at the searched rates; a single
                # sequential stream may still meet the SLO.
                per_device = min(self._sequential_rate(platform, slo),
                                 0.125)
        except Exception:
            per_device = self._sequential_rate(platform, slo)
        if per_device <= 0:
            return ProvisioningOption(platform=platform.name,
                                      rate_per_device=0.0,
                                      devices_needed=None,
                                      fleet_cost_usd=None)
        devices = math.ceil(target_rate * (1.0 + self.headroom) / per_device)
        return ProvisioningOption(
            platform=platform.name,
            rate_per_device=per_device,
            devices_needed=devices,
            fleet_cost_usd=devices * list_price(platform.name),
        )

    def plan(self, platforms: List[Platform], target_rate: float,
             slo: SLO) -> ProvisioningPlan:
        """Size every candidate platform and rank by fleet cost."""
        options = [self.size_option(platform, target_rate, slo)
                   for platform in platforms]
        options.sort(key=lambda option: (
            option.fleet_cost_usd if option.feasible else float("inf")))
        return ProvisioningPlan(target_rate=target_rate, slo=slo,
                                options=options)
