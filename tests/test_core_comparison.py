"""Comparison-utility tests."""

import pytest

from repro.core.comparison import compare_platforms, per_model_speedup_range
from repro.core.runner import CharacterizationSweep
from repro.hardware.registry import get_platform
from repro.models.registry import get_model


def small_sweep():
    sweep = CharacterizationSweep(
        [get_platform("icl"), get_platform("spr")],
        [get_model("opt-1.3b"), get_model("opt-6.7b")],
        batch_sizes=[1, 8])
    return sweep.run()


class TestComparePlatforms:
    def test_pairs_every_cell(self):
        comps = compare_platforms(small_sweep(), "ICL-8352Y", "SPR-Max-9468")
        assert len(comps) == 4  # 2 models x 2 batches

    def test_normalized_below_one_for_faster_target(self):
        comps = compare_platforms(small_sweep(), "ICL-8352Y", "SPR-Max-9468")
        assert all(c.normalized["e2e_s"] < 1.0 for c in comps)

    def test_speedup_reciprocal_of_normalized(self):
        comp = compare_platforms(small_sweep(), "ICL-8352Y",
                                 "SPR-Max-9468")[0]
        assert per_model_speedup_range([comp])[comp.model] == pytest.approx(
            1.0 / comp.normalized["e2e_s"])

    def test_latency_reduction_consistent(self):
        comp = compare_platforms(small_sweep(), "ICL-8352Y",
                                 "SPR-Max-9468")[0]
        assert comp.e2e_latency_reduction_pct == pytest.approx(
            (1 - comp.normalized["e2e_s"]) * 100)

    def test_reverse_direction_inverts(self):
        rows = small_sweep()
        forward = compare_platforms(rows, "ICL-8352Y", "SPR-Max-9468")[0]
        backward = compare_platforms(rows, "SPR-Max-9468", "ICL-8352Y")[0]
        assert forward.normalized["e2e_s"] == pytest.approx(
            1.0 / backward.normalized["e2e_s"])

    def test_missing_target_yields_empty(self):
        assert compare_platforms(small_sweep(), "ICL-8352Y", "H100-80GB") == []


class TestAggregations:
    def test_per_model_speedup_range(self):
        comps = compare_platforms(small_sweep(), "ICL-8352Y", "SPR-Max-9468")
        speedups = per_model_speedup_range(comps)
        assert set(speedups) == {"OPT-1.3B", "OPT-6.7B"}
        assert all(s > 1 for s in speedups.values())
