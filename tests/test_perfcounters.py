"""Performance-counter model tests (Figs. 11, 12, 15, 16 trends)."""

import pytest

from repro.engine.backend import NumaBackend
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.modes import QUAD_FLAT, SNC_FLAT
from repro.perfcounters.collector import CounterModel


def estimates_vs_batch(model_key="llama2-13b", batches=(1, 8, 32)):
    counter_model = CounterModel(get_platform("spr"))
    model = get_model(model_key)
    return [counter_model.estimate(model, InferenceRequest(batch_size=b))
            for b in batches]


class TestBatchTrends:
    """Figs. 11/12: the three trends the paper reports."""

    def test_mpki_decreases_with_batch_llama(self):
        mpki = [e.llc_mpki for e in estimates_vs_batch("llama2-13b")]
        assert mpki == sorted(mpki, reverse=True)

    def test_mpki_decreases_with_batch_opt66b(self):
        mpki = [e.llc_mpki for e in estimates_vs_batch("opt-66b")]
        assert mpki == sorted(mpki, reverse=True)

    def test_core_utilization_increases_with_batch(self):
        utils = [e.core_utilization for e in estimates_vs_batch()]
        assert utils == sorted(utils)

    def test_load_store_grows_with_batch(self):
        ls = [e.load_store_instructions for e in estimates_vs_batch()]
        assert ls == sorted(ls)

    def test_utilization_bounded(self):
        for est in estimates_vs_batch():
            assert 0 <= est.core_utilization <= 1
            assert 0 <= est.upi_utilization <= 1


class TestNumaTrends:
    """Fig. 15: SNC inflates remote accesses; flat beats cache."""

    def setup_method(self):
        self.spr = get_platform("spr")
        self.model = get_model("llama2-13b")
        self.request = InferenceRequest(batch_size=8)

    def counters(self, numa):
        return CounterModel(self.spr, NumaBackend(numa=numa)).estimate(
            self.model, self.request)

    def test_snc_remote_accesses_dwarf_quad(self):
        quad = self.counters(QUAD_FLAT)
        snc = self.counters(SNC_FLAT)
        assert snc.remote_llc_accesses > 10 * quad.remote_llc_accesses

    def test_snc_slower_wall_time(self):
        assert self.counters(SNC_FLAT).wall_time_s > \
            self.counters(QUAD_FLAT).wall_time_s


class TestCoreTrends:
    """Fig. 16: UPI utilization spikes only past one socket."""

    def counters(self, cores):
        return CounterModel(get_platform("spr"), cores=cores).estimate(
            get_model("llama2-7b"), InferenceRequest(batch_size=8))

    def test_upi_negligible_within_socket(self):
        for cores in (12, 24, 48):
            assert self.counters(cores).upi_utilization < 0.1

    def test_upi_spikes_at_96(self):
        assert self.counters(96).upi_utilization > 0.3

    def test_wall_time_96_worse_than_48(self):
        assert self.counters(96).wall_time_s > self.counters(48).wall_time_s


class TestSanity:
    def test_instructions_positive(self):
        est = estimates_vs_batch(batches=(1,))[0]
        assert est.instructions > est.load_store_instructions > 0

    def test_misses_not_more_than_line_granular_traffic(self):
        est = estimates_vs_batch(batches=(1,))[0]
        assert est.llc_misses <= est.load_store_instructions

    def test_mpki_consistent_definition(self):
        est = estimates_vs_batch(batches=(8,))[0]
        assert est.llc_mpki == pytest.approx(
            est.llc_misses / (est.instructions / 1000.0))

    def test_from_result_matches_estimate(self):
        spr = get_platform("spr")
        counter_model = CounterModel(spr)
        model = get_model("opt-6.7b")
        request = InferenceRequest(batch_size=4)
        direct = counter_model.estimate(model, request)
        result = counter_model.simulator.run(model, request)
        indirect = counter_model.from_result(result)
        assert direct.llc_mpki == pytest.approx(indirect.llc_mpki)
