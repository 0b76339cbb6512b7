"""Property-based tests for the extension substrates (hypothesis)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware.datatypes import DType
from repro.models.config import FFNKind, ModelConfig
from repro.models.registry import get_model
from repro.numa.model import hot_cold_effective_bandwidth
from repro.quant.weightonly import QuantConfig, QuantScheme
from repro.serving.arrivals import poisson_arrivals
from repro.serving.scheduler import BatchingSimulator
from repro.specdecode.model import SpecDecodeConfig
from repro.utils.units import gb_per_s


class TestQuantProperties:
    @given(group_size=st.integers(min_value=16, max_value=1024))
    @settings(max_examples=40, deadline=None)
    def test_w4_always_smaller_than_w8(self, group_size):
        w8 = QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT8,
                         group_size=group_size)
        w4 = QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT4,
                         group_size=group_size)
        assert w4.weight_bytes_ratio() < w8.weight_bytes_ratio() < 1.0

    @given(group_size=st.integers(min_value=8, max_value=2048))
    @settings(max_examples=40, deadline=None)
    def test_ratio_decreasing_in_group_size(self, group_size):
        coarse = QuantConfig(group_size=group_size * 2).weight_bytes_ratio()
        fine = QuantConfig(group_size=group_size).weight_bytes_ratio()
        assert coarse <= fine


class TestSpecDecodeProperties:
    @given(gamma=st.integers(min_value=1, max_value=32),
           alpha=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_expected_tokens_bounds(self, gamma, alpha):
        config = SpecDecodeConfig(gamma=gamma, acceptance_rate=alpha)
        expected = config.expected_tokens_per_cycle
        assert 1.0 < expected < gamma + 1

    @given(gamma=st.integers(min_value=1, max_value=16),
           alpha=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_expected_tokens_monotone_in_gamma(self, gamma, alpha):
        small = SpecDecodeConfig(gamma=gamma, acceptance_rate=alpha)
        large = SpecDecodeConfig(gamma=gamma + 1, acceptance_rate=alpha)
        assert large.expected_tokens_per_cycle >= \
            small.expected_tokens_per_cycle


class TestMoEProperties:
    @given(experts=st.integers(min_value=2, max_value=64),
           tokens=st.integers(min_value=1, max_value=256))
    @settings(max_examples=60, deadline=None)
    def test_active_fraction_bounds(self, experts, tokens):
        top_k = max(1, experts // 4)
        model = ModelConfig(
            name="moe", family="x", n_layers=2, d_model=256, n_heads=4,
            n_kv_heads=4, d_ff=512, ffn_kind=FFNKind.SWIGLU,
            vocab_size=1000, max_positions=512, tied_embeddings=False,
            learned_positional_embeddings=False,
            n_experts=experts, top_k=top_k)
        fraction = model.active_expert_fraction(tokens)
        assert top_k / experts - 1e-9 <= fraction <= 1.0

    @given(tokens=st.integers(min_value=1, max_value=128))
    @settings(max_examples=40, deadline=None)
    def test_mixtral_fraction_monotone(self, tokens):
        model = get_model("mixtral-8x7b")
        assert model.active_expert_fraction(tokens + 1) >= \
            model.active_expert_fraction(tokens)


class TestHotColdProperties:
    @given(hot=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_bandwidth_between_extremes(self, hot):
        local, remote = gb_per_s(588), gb_per_s(40)
        bandwidth = hot_cold_effective_bandwidth(hot, local, remote)
        assert remote - 1e-6 <= bandwidth <= local + 1e-6

    @given(hot_low=st.floats(min_value=0.0, max_value=0.5),
           delta=st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_more_local_traffic_never_hurts(self, hot_low, delta):
        local, remote = gb_per_s(588), gb_per_s(40)
        low = hot_cold_effective_bandwidth(hot_low, local, remote)
        high = hot_cold_effective_bandwidth(hot_low + delta, local, remote)
        assert high >= low


class TestSchedulerConservation:
    @given(rate=st.floats(min_value=0.2, max_value=8.0),
           count=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_all_policies_conserve_requests_and_tokens(self, rate, count,
                                                       seed):
        from repro.hardware.registry import get_platform
        simulator = BatchingSimulator(get_platform("spr"),
                                      get_model("opt-1.3b"), max_batch=4)
        arrivals = poisson_arrivals(rate, count, seed=seed)
        expected_tokens = sum(r.output_len for r in arrivals)
        for runner in (simulator.run_static, simulator.run_continuous,
                       simulator.run_chunked):
            report = runner(arrivals)
            assert len(report.completed) == count
            assert report.generated_tokens == expected_tokens
            ids = sorted(r.request_id for r in report.completed)
            assert ids == sorted(r.request_id for r in arrivals)

    @given(rate=st.floats(min_value=0.5, max_value=4.0),
           seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_lifecycle_invariants_hold(self, rate, seed):
        from repro.hardware.registry import get_platform
        simulator = BatchingSimulator(get_platform("spr"),
                                      get_model("opt-1.3b"), max_batch=4)
        arrivals = poisson_arrivals(rate, 8, seed=seed)
        for runner in (simulator.run_continuous, simulator.run_chunked):
            report = runner(arrivals)
            for record in report.completed:
                assert record.arrival_s <= record.start_s
                assert record.start_s < record.first_token_s
                assert record.first_token_s <= record.finish_s
