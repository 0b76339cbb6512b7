"""Bench: the fluid solver must stay instant and stay honest.

The mean-field steady-state solver answers provisioning what-ifs
analytically — no event loop at all — which is what makes wide sweep
grids and the fleet advisor's outer loop free. This gate runs the quick
variant of ``tools/bench.py --suite fluid`` (a 10-point provisioning
sweep cross-checked against the exact simulator at 1.5k requests per
point) and asserts the contract from both sides:

* the whole sweep, solved cold (cost-table warmup included), beats the
  simulated sweep by a generous floor — the full 20k-request record in
  ``BENCH_cluster.json`` is far higher, and the warm per-point cost is
  microseconds;
* stable-regime throughput/goodput/$-per-Mtok stay inside a loose
  envelope of the simulator (the full-scale record is ~0.2%; the quick
  bound only catches a broken model, not sampling noise);
* every overloaded point is *flagged* (the simulator's attainment
  collapses there too) — the solver never extrapolates through
  saturation;
* a warm tiered solve that runs to the fixed point's iteration cap stays
  several times cheaper than the exact 1,000-request replay that
  confirms it (``recommend_fleet``'s two steps on one mixed fleet).

Run with::

    pytest benchmarks/test_fluid.py --benchmark-only
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench  # noqa: E402  (tools/bench.py)

from repro.analysis.cost import list_price  # noqa: E402
from repro.cluster import ClusterConfig, ReplicaSpec, fluid  # noqa: E402
from repro.engine.backend import HybridBackend, parse_backend  # noqa: E402
from repro.hardware.registry import get_platform  # noqa: E402
from repro.models.registry import get_model  # noqa: E402
from repro.optim.advisor import measure_fleet  # noqa: E402
from repro.workloads.classes import DEFAULT_CLASS_MIX  # noqa: E402

MIN_FLUID_SPEEDUP = 8.0
MAX_STABLE_REL_ERR = 0.06
#: Exact 1,000-request replay over a warm capped tiered solve of the
#: same fleet: 2.0-2.3x when every fixed-point iteration built the full
#: station report, 4.3-4.5x once iterations solved only what the spill
#: cascade reads (2-vCPU x86 host, CPython 3.11). Re-measured on a
#: shared 2-vCPU host, that form read 2.5-3.2x, and the station solve in
#: few fused passes reads 4.1-4.7x.
MIN_REPLAY_OVER_CAPPED_SOLVE = 3.0


def test_fluid_sweep_speed_and_envelope(benchmark):
    result = {}

    def run():
        result.update(bench.bench_fluid(quick=True, repeat=1))

    benchmark.pedantic(run, rounds=1, iterations=1)

    assert result["speedup"] >= MIN_FLUID_SPEEDUP, (
        f"fluid solver regressed: {result['speedup']:.1f}x over the "
        f"simulated sweep (floor {MIN_FLUID_SPEEDUP}x)")

    stable = result["envelope"].get("stable")
    assert stable is not None and stable["points"] >= 2, (
        "the provisioning sweep no longer reaches the stable regime — "
        "the operating point drifted")
    for metric in ("throughput", "goodput", "dollars_per_mtok"):
        assert stable[metric] <= MAX_STABLE_REL_ERR, (
            f"stable-regime {metric} error {stable[metric]:.1%} exceeds "
            f"{MAX_STABLE_REL_ERR:.0%} vs the exact simulator")

    assert result["overload_flag_agrees"], (
        "a fluid-overloaded point kept high simulated attainment — the "
        "overload flag is lying")


def _mixed_fleet() -> ClusterConfig:
    """One LLaMA2-13B replica each of SPR, A100, SPR+A100 hybrid, SPR int8."""
    spr, a100 = get_platform("spr"), get_platform("a100")
    model = get_model("llama2-13b")
    return ClusterConfig([
        ReplicaSpec(spr, model),
        ReplicaSpec(a100, model),
        ReplicaSpec(spr, model, backend=HybridBackend(gpu=a100),
                    price_usd=list_price(spr.name) + list_price(a100.name)),
        ReplicaSpec(spr, model, backend=parse_backend("int8")),
    ])


def test_warm_capped_solve_vs_exact_replay(benchmark):
    config = _mixed_fleet()

    def solve():
        return fluid.solve(config, 3.0, mix=DEFAULT_CLASS_MIX)

    def replay():
        return measure_fleet(config, 3.0, mix=DEFAULT_CLASS_MIX,
                             count=1_000, seed=0)

    report = solve()  # warms the cost tables
    assert not report.converged and report.iterations == 200, (
        "the 3/s point no longer runs to the iteration cap — pick a "
        "rate that does")
    replay()
    solve_s, replay_s = [], []

    def run():
        for _ in range(5):  # interleaved, so both see the same host
            start = time.perf_counter()
            solve()
            solve_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            replay()
            replay_s.append(time.perf_counter() - start)

    benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = min(replay_s) / min(solve_s)
    assert ratio >= MIN_REPLAY_OVER_CAPPED_SOLVE, (
        f"a warm capped tiered solve ({min(solve_s) * 1e3:.1f} ms) is only "
        f"{ratio:.1f}x cheaper than a 1,000-request exact replay "
        f"(floor {MIN_REPLAY_OVER_CAPPED_SOLVE}x)")
