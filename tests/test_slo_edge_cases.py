"""Edge-case tests for :func:`repro.serving.slo.max_sustainable_rate`.

The bisection's contract at its boundaries: an SLO no single request can
meet yields a clean 0.0 (not a bogus positive rate), attainment is
monotone across the search bracket, and a returned positive rate
actually attains the target when replayed.
"""

import pytest

from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import poisson_arrivals
from repro.serving.scheduler import BatchingSimulator
from repro.serving.slo import (
    RATE_BOUNDS,
    SEARCH_REQUESTS,
    SLO,
    TARGET_ATTAINMENT,
    attainment,
    max_sustainable_rate,
)


@pytest.fixture(scope="module")
def simulator():
    return BatchingSimulator(get_platform("spr"), get_model("llama2-7b"),
                             max_batch=8)


class TestImpossibleSLO:
    def test_unmeetable_slo_returns_zero(self, simulator):
        # No request finishes its first token in 1 microsecond; even the
        # lowest bracket rate fails, and the search must say so cleanly.
        impossible = SLO(ttft_s=1e-6, tpot_s=1e-6)
        assert max_sustainable_rate(simulator, impossible) == 0.0

    def test_unmeetable_ttft_alone_returns_zero(self, simulator):
        # Generous TPOT, hopeless TTFT: the prefill itself exceeds the
        # bound, so rate cannot rescue it.
        assert max_sustainable_rate(
            simulator, SLO(ttft_s=1e-6, tpot_s=10.0)) == 0.0


class TestBracketMonotonicity:
    def test_attainment_monotone_over_bracket(self, simulator):
        slo = SLO(ttft_s=1.0, tpot_s=0.1)

        def measure(rate):
            arrivals = poisson_arrivals(rate, SEARCH_REQUESTS)
            return attainment(simulator.run_continuous(arrivals),
                              arrivals, slo)

        low, high = RATE_BOUNDS
        mid = (low * high) ** 0.5
        scores = [measure(low), measure(mid), measure(high)]
        assert scores[0] >= scores[1] >= scores[2]
        # The bracket genuinely brackets: easy at the bottom, saturated
        # at the top.
        assert scores[0] == 1.0
        assert scores[2] < 1.0

    def test_returned_rate_attains_target(self, simulator):
        slo = SLO(ttft_s=1.0, tpot_s=0.1)
        rate = max_sustainable_rate(simulator, slo)
        assert rate > 0
        arrivals = poisson_arrivals(rate, SEARCH_REQUESTS)
        report = simulator.run_continuous(arrivals)
        assert attainment(report, arrivals, slo) >= TARGET_ATTAINMENT


class TestPolicySpelling:
    def test_unknown_policy_rejected(self, simulator):
        with pytest.raises(ValueError, match="'statik'.*static, continuous, "
                                             "chunked"):
            max_sustainable_rate(simulator, SLO(ttft_s=1.0, tpot_s=0.1),
                                 policy="statik")
