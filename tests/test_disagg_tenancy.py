"""Disaggregation, multi-tenancy, and long-context extension tests."""

import pytest

from repro.analysis.cost import list_price
from repro.engine.backend import HybridBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.multitenancy import MultiTenantSimulator, tenancy_sweep


class Disaggregated:
    """GPU-prefill + CPU-decode through ``HybridBackend`` vs one device."""

    def __init__(self, model, request):
        spr, h100 = get_platform("spr"), get_platform("h100")
        backend = HybridBackend(h100)
        self.result = InferenceSimulator(spr, backend=backend).run(
            model, request)
        self.gpu_busy_s = backend.prefill_comm_s(
            model, request.batch_size, request.input_len)
        self.cpu_only_e2e_s = InferenceSimulator(spr).run(
            model, request).e2e_s
        self.gpu_only_e2e_s = InferenceSimulator(h100).run(
            model, request).e2e_s
        self.gpu_occupancy_fraction = self.gpu_busy_s / self.gpu_only_e2e_s
        tokens = request.total_generated_tokens
        cpu_price, gpu_price = list_price(spr.name), list_price(h100.name)
        self.per_dollar = {
            "cpu_only": tokens / self.cpu_only_e2e_s / cpu_price,
            "gpu_only": tokens / self.gpu_only_e2e_s / gpu_price,
            "disaggregated": tokens / self.result.e2e_s / (
                cpu_price + gpu_price * self.gpu_occupancy_fraction),
        }


class TestDisaggregation:
    @pytest.fixture(scope="class")
    def estimate(self):
        return Disaggregated(get_model("opt-13b"),
                             InferenceRequest(batch_size=1))

    def test_ttft_close_to_gpu_prefill(self, estimate):
        # TTFT is the GPU prefill leg, K/V handoff overlapped inside it.
        assert estimate.result.ttft_s == pytest.approx(estimate.gpu_busy_s)
        assert estimate.gpu_busy_s > 0

    def test_e2e_between_devices(self, estimate):
        assert estimate.gpu_only_e2e_s < estimate.result.e2e_s
        # Disaggregated beats CPU-only: the GPU prefill is faster.
        assert estimate.result.e2e_s < estimate.cpu_only_e2e_s

    def test_gpu_occupancy_small(self, estimate):
        assert estimate.gpu_occupancy_fraction < 0.15
        assert estimate.gpu_only_e2e_s - estimate.gpu_busy_s > 0

    def test_longer_prompt_raises_occupancy(self):
        short = Disaggregated(get_model("opt-13b"),
                              InferenceRequest(input_len=128))
        long = Disaggregated(get_model("opt-13b"),
                             InferenceRequest(input_len=1024))
        assert long.gpu_occupancy_fraction > short.gpu_occupancy_fraction

    def test_cost_weighted_options(self, estimate):
        per_dollar = estimate.per_dollar
        assert set(per_dollar) == {"cpu_only", "gpu_only", "disaggregated"}
        assert all(v > 0 for v in per_dollar.values())

    def test_requires_cpu_and_gpu(self):
        with pytest.raises(ValueError):
            HybridBackend(get_platform("spr"))
        with pytest.raises(ValueError):
            InferenceSimulator(get_platform("a100"),
                               backend=HybridBackend(get_platform("h100")))


class TestMultiTenancy:
    def test_single_tenant_no_slowdown(self):
        outcome = MultiTenantSimulator(get_platform("spr"), 1).evaluate(
            get_model("llama2-7b"), InferenceRequest(batch_size=4))
        assert outcome.e2e_slowdown == pytest.approx(1.0, rel=0.01)

    def test_decode_slowdown_tracks_bandwidth_split(self):
        outcome = MultiTenantSimulator(get_platform("spr"), 2).evaluate(
            get_model("llama2-7b"), InferenceRequest(batch_size=4))
        # Split + contention loss: a bit over 2x for two tenants.
        assert 2.0 < outcome.decode_slowdown < 2.5

    def test_prefill_gentler_than_decode(self):
        outcome = MultiTenantSimulator(get_platform("spr"), 4).evaluate(
            get_model("llama2-7b"), InferenceRequest(batch_size=4))
        assert outcome.prefill_slowdown < outcome.decode_slowdown

    def test_aggregate_throughput_roughly_conserved(self):
        for outcome in tenancy_sweep(get_platform("spr"),
                                     get_model("llama2-7b"),
                                     InferenceRequest(batch_size=4),
                                     tenant_counts=(2, 4)):
            assert 0.8 < outcome.aggregate_throughput_gain <= 1.05

    def test_slowdown_monotone_in_tenants(self):
        outcomes = tenancy_sweep(get_platform("spr"),
                                 get_model("llama2-7b"),
                                 InferenceRequest(batch_size=4))
        slowdowns = [o.e2e_slowdown for o in outcomes]
        assert slowdowns == sorted(slowdowns)

    def test_too_many_tenants_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            MultiTenantSimulator(get_platform("spr"), 96)

    def test_gpu_rejected(self):
        with pytest.raises(ValueError, match="not a CPU"):
            MultiTenantSimulator(get_platform("h100"), 2)


class TestLongContextExperiment:
    def test_gqa_kv_is_8x_smaller(self):
        from repro.models.memory import kv_cache_bytes
        opt = kv_cache_bytes(get_model("opt-66b"), 8192, 1)
        llama = kv_cache_bytes(get_model("llama2-70b"), 8192, 1)
        # Similar d_model scale; GQA divides KV heads by 8 (plus the
        # models' width difference).
        assert opt / llama > 6.0

    def test_mha_decode_grows_faster_with_context(self):
        from repro.engine.inference import simulate
        spr = get_platform("spr")

        def tpot(model_key, context):
            return simulate(spr, get_model(model_key),
                            InferenceRequest(input_len=context,
                                             output_len=2)).tpot_s

        opt_growth = tpot("opt-66b", 8192) / tpot("opt-66b", 2048)
        llama_growth = tpot("llama2-70b", 8192) / tpot("llama2-70b", 2048)
        assert opt_growth > llama_growth
