"""Fleet-provisioning tests."""

import pytest

from repro.engine.inference import MemoryCapacityError
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.provisioning import ProvisioningPlanner
from repro.serving.scheduler import BatchingSimulator
from repro.serving.slo import SLO


class TestCapacityGuard:
    def test_batching_simulator_rejects_oversize_model(self):
        with pytest.raises(MemoryCapacityError, match="does not fit"):
            BatchingSimulator(get_platform("h100"), get_model("opt-66b"),
                              max_batch=4)

    def test_fitting_model_accepted(self):
        BatchingSimulator(get_platform("h100"), get_model("opt-13b"),
                          max_batch=4)


class TestProvisioningPlanner:
    def test_small_model_gpu_cheapest(self):
        planner = ProvisioningPlanner(get_model("llama2-7b"), max_batch=4)
        plan = planner.plan(
            [get_platform("spr"), get_platform("h100")],
            target_rate=20.0, slo=SLO(ttft_s=1.0, tpot_s=0.08))
        assert plan.cheapest.platform == "H100-80GB"

    def test_large_model_cpu_cheapest(self):
        planner = ProvisioningPlanner(get_model("opt-66b"), max_batch=4)
        plan = planner.plan(
            [get_platform("spr"), get_platform("h100")],
            target_rate=0.02, slo=SLO(ttft_s=30.0, tpot_s=0.8))
        assert plan.cheapest.platform == "SPR-Max-9468"

    def test_devices_scale_with_target_rate(self):
        planner = ProvisioningPlanner(get_model("llama2-7b"), max_batch=4)
        slo = SLO(ttft_s=1.0, tpot_s=0.08)
        spr = get_platform("spr")
        small = planner.size_option(spr, 5.0, slo)
        large = planner.size_option(spr, 50.0, slo)
        assert large.devices_needed > small.devices_needed

    def test_headroom_increases_fleet(self):
        tight = ProvisioningPlanner(get_model("llama2-7b"), max_batch=4,
                                    headroom=0.0)
        padded = ProvisioningPlanner(get_model("llama2-7b"), max_batch=4,
                                     headroom=1.0)
        slo = SLO(ttft_s=1.0, tpot_s=0.08)
        spr = get_platform("spr")
        assert padded.size_option(spr, 10.0, slo).devices_needed >= \
            tight.size_option(spr, 10.0, slo).devices_needed

    def test_infeasible_platform_marked(self):
        # ICL cannot hold the chatbot TPOT SLO for LLaMA2-7B.
        planner = ProvisioningPlanner(get_model("llama2-7b"), max_batch=4)
        option = planner.size_option(
            get_platform("icl"), 1.0, SLO(ttft_s=0.5, tpot_s=0.05))
        assert not option.feasible
        assert option.fleet_cost_usd is None

    def test_cheapest_raises_when_nothing_feasible(self):
        planner = ProvisioningPlanner(get_model("llama2-7b"), max_batch=4)
        plan = planner.plan([get_platform("icl")], 1.0,
                            SLO(ttft_s=1e-6, tpot_s=1e-6))
        with pytest.raises(RuntimeError, match="no platform"):
            plan.cheapest

    def test_rejects_negative_headroom(self):
        with pytest.raises(ValueError):
            ProvisioningPlanner(get_model("llama2-7b"), headroom=-0.1)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="'bogus'.*static, continuous, "
                                             "chunked"):
            ProvisioningPlanner(get_model("llama2-7b"), policy="bogus")
