"""Fleet-provisioning tests."""

import pytest

from repro.analysis.cost import list_price
from repro.cluster import ReplicaSpec
from repro.engine.inference import MemoryCapacityError
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.optim.advisor import size_fleet
from repro.serving.scheduler import BatchingSimulator
from repro.serving.slo import SLO

CHAT_SLO = SLO(ttft_s=1.0, tpot_s=0.08)


def _replica(platform_key, model_key="llama2-7b"):
    return ReplicaSpec(get_platform(platform_key), get_model(model_key),
                       max_batch=4)


def _fleet_cost(rec):
    return rec.best.config.size * list_price(
        rec.best.config.replicas[0].platform.name)


@pytest.fixture(scope="module")
def small_fleets():
    """LLaMA2-7B at 20 req/s, sized on SPR and on H100 (ext_provisioning)."""
    return {key: size_fleet(_replica(key), 20.0, slo=CHAT_SLO,
                            confirm_requests=1200)
            for key in ("spr", "h100")}


class TestCapacityGuard:
    def test_batching_simulator_rejects_oversize_model(self):
        with pytest.raises(MemoryCapacityError, match="does not fit"):
            BatchingSimulator(get_platform("h100"), get_model("opt-66b"),
                              max_batch=4)

    def test_fitting_model_accepted(self):
        BatchingSimulator(get_platform("h100"), get_model("opt-13b"),
                          max_batch=4)


class TestSizeFleet:
    def test_small_model_fleets_tie(self, small_fleets):
        # Once each fleet size is exact-confirmed (no capacity headroom),
        # 9x SPR and 3x H100 cost within 1% of each other; the old
        # "H100 strictly cheaper" verdict came from padding only the SPR
        # fleet, sized off a rate 8x SPR measurably fails (0.848).
        for rec in small_fleets.values():
            assert rec.best is not None
            assert rec.confirmation.accepted
        cpu, gpu = (_fleet_cost(small_fleets[key]) for key in ("spr", "h100"))
        assert abs(cpu - gpu) <= 0.02 * min(cpu, gpu)

    def test_large_model_cpu_cheapest(self):
        slo = SLO(ttft_s=30.0, tpot_s=0.8)
        rec = size_fleet(_replica("spr", "opt-66b"), 0.02, slo=slo)
        assert rec.best is not None and rec.confirmation.accepted
        # The model does not fit H100 memory: flagged, not extrapolated.
        with pytest.raises(MemoryCapacityError, match="does not fit"):
            size_fleet(_replica("h100", "opt-66b"), 0.02, slo=slo)

    def test_devices_scale_with_target_rate(self):
        spr = _replica("spr")
        small = size_fleet(spr, 5.0, slo=CHAT_SLO)
        large = size_fleet(spr, 50.0, slo=CHAT_SLO)
        assert small.best.config.size == 3
        assert large.best.config.size == 20

    def test_infeasible_platform_marked(self):
        # ICL cannot hold the chatbot TPOT SLO for LLaMA2-7B.
        rec = size_fleet(_replica("icl"), 1.0,
                         slo=SLO(ttft_s=0.5, tpot_s=0.05))
        assert rec.best is None
        assert rec.confirmations == []

    def test_no_feasible_candidate_gives_no_best(self):
        rec = size_fleet(_replica("icl"), 1.0,
                         slo=SLO(ttft_s=1e-6, tpot_s=1e-6))
        assert rec.best is None
        assert rec.confirmation is None
        assert not any(assessment.feasible for assessment in rec.ranked)

    def test_confirmation_falls_through_to_next_size(self, small_fleets):
        rec = small_fleets["spr"]
        assert [(c.label, c.accepted) for c in rec.confirmations] == [
            ("8x SPR-Max-9468", False), ("9x SPR-Max-9468", True)]
        assert rec.best.label == "9x SPR-Max-9468"
        assert rec.confirmation is rec.confirmations[-1]
