"""Bench: multi-tenant fairness & admission control extension.

Gates the headline claims of ``ext_fairness`` — the fairness schedulers
beat FCFS on the Jain index under skewed overload, and the
interaction-level door strictly reduces wasted work — plus a regression
guard on the admission-scheduler overhead itself (quick-mode run of the
``tools/bench.py --suite fairness`` legs).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench  # noqa: E402  (tools/bench.py)

# The measured overheads hover around 1.0-1.2x (the pick/charge
# bookkeeping is tiny next to pricing); the ceiling is generous so only
# a real regression — e.g. the pick going superlinear — trips it.
MAX_SCHEDULER_OVERHEAD = 3.0


def test_ext_fairness(run_report):
    report = run_report("ext_fairness")
    by_scenario = {}
    for row in report.rows:
        by_scenario.setdefault(row[0], []).append(row)

    # Scheduling: under 2x-overload Zipf demand, both fairness
    # schedulers raise the Jain index over FCFS admission.
    jain = {row[1]: float(row[2]) for row in by_scenario["scheduler"]}
    assert jain["VTC"] > jain["FCFS"]
    assert jain["WSC"] > jain["FCFS"]
    # FCFS mirrors the demand skew, far from max-min.
    assert jain["FCFS"] < 0.7
    assert jain["VTC"] > 0.7

    # Throttling: at equal per-user limits, the interaction-level door
    # wastes strictly less than no door, and less than the per-request
    # policy (whose mid-chain aborts waste completed stages).
    wasted = {row[1]: int(row[5]) for row in by_scenario["throttling"]}
    assert wasted["door: interaction"] < wasted["no door"]
    assert wasted["door: interaction"] <= wasted["door: per-request"]
    assert wasted["door: per-request"] < wasted["no door"]
    # The doors actually refused something.
    rates = {row[1]: float(row[4]) for row in by_scenario["throttling"]}
    assert rates["no door"] == 0.0
    assert rates["door: interaction"] > 0.0


def test_fairness_scheduler_overhead(benchmark):
    """Admission schedulers must stay cheap next to the built-in loop."""
    result = benchmark(bench.bench_fairness, quick=True, repeat=3)
    for key in ("vtc_overhead", "wsc_overhead"):
        assert result[key] <= MAX_SCHEDULER_OVERHEAD, (
            f"{key} regressed: {result[key]:.2f}x "
            f"(ceiling {MAX_SCHEDULER_OVERHEAD}x)")
