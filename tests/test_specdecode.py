"""Speculative-decoding tests."""

import pytest

from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.specdecode.model import (
    GAMMA_CANDIDATES,
    SpecDecodeConfig,
    SpeculativeDecoder,
)


class TestSpecDecodeConfig:
    def test_expected_tokens_formula(self):
        config = SpecDecodeConfig(gamma=4, acceptance_rate=0.8)
        expected = (1 - 0.8 ** 5) / (1 - 0.8)
        assert config.expected_tokens_per_cycle == pytest.approx(expected)

    def test_expected_tokens_at_least_one(self):
        assert SpecDecodeConfig(
            gamma=1, acceptance_rate=0.01).expected_tokens_per_cycle > 1.0

    def test_expected_tokens_bounded_by_gamma_plus_one(self):
        config = SpecDecodeConfig(gamma=4, acceptance_rate=0.99)
        assert config.expected_tokens_per_cycle < 5.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SpecDecodeConfig(acceptance_rate=1.0)
        with pytest.raises(ValueError):
            SpecDecodeConfig(acceptance_rate=0.0)

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError):
            SpecDecodeConfig(gamma=0)


class TestSpeculativeDecoder:
    def decoder(self, target="opt-13b", **config_kwargs):
        return SpeculativeDecoder(
            get_platform("spr"), get_model(target), get_model("opt-1.3b"),
            SpecDecodeConfig(**config_kwargs) if config_kwargs
            else SpecDecodeConfig())

    def test_speedup_above_one(self):
        estimate = self.decoder().estimate()
        assert estimate.speedup > 1.2

    def test_bigger_target_gains_more(self):
        small = self.decoder("opt-13b").estimate().speedup
        large = self.decoder("opt-66b").estimate().speedup
        assert large > small

    def test_cycle_composition(self):
        estimate = self.decoder(gamma=4).estimate()
        assert estimate.cycle_s == pytest.approx(
            4 * estimate.draft_step_s + estimate.verify_pass_s)

    def test_effective_tpot_definition(self):
        estimate = self.decoder().estimate()
        assert estimate.effective_tpot_s == pytest.approx(
            estimate.cycle_s / estimate.expected_tokens)

    def test_low_acceptance_kills_the_gain(self):
        good = self.decoder(gamma=4, acceptance_rate=0.9).estimate().speedup
        bad = self.decoder(gamma=4, acceptance_rate=0.1).estimate().speedup
        assert good > bad

    def test_best_gamma_returns_candidate(self):
        assert self.decoder().best_gamma() in GAMMA_CANDIDATES

    def test_draft_must_be_smaller(self):
        with pytest.raises(ValueError, match="must be smaller"):
            SpeculativeDecoder(get_platform("spr"), get_model("opt-1.3b"),
                               get_model("opt-13b"))

    def test_batch_request_supported(self):
        # A batch is served through the folded backend.
        decoder = self.decoder()
        result = InferenceSimulator(get_platform("spr"),
                                    decoder.backend()).run(
            get_model("opt-13b"), InferenceRequest(batch_size=4))
        assert result.tpot_s > 0
