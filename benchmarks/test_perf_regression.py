"""Bench: simulator performance regression guard.

Times the analytical decode pricing against the pre-PR per-step loop on
the paper's fig-8 grid and on one long-decode request, and the
tensor-parallel decode series against its own per-step loop, and fails
if the fast path loses its advantage. The authoritative speedup record lives in
``BENCH_sweep.json`` (regenerate with ``make bench``); these tests exist
so a perf regression shows up in the benchmark harness, with generous
floors to stay robust against machine noise.

Run with::

    pytest benchmarks/test_perf_regression.py --benchmark-only
"""

import pathlib
import sys
import timeit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench  # noqa: E402  (tools/bench.py)

from repro.engine.backend import parse_backend  # noqa: E402
from repro.engine.inference import InferenceSimulator  # noqa: E402
from repro.engine.request import InferenceRequest  # noqa: E402
from repro.experiments._sweeps import clear_caches  # noqa: E402
from repro.hardware.registry import get_platform  # noqa: E402
from repro.models.registry import get_model  # noqa: E402

# Floors deliberately far below the measured speedups (~11x cold grid,
# >100x micro on the reference box) so only a real regression trips them.
MIN_GRID_SPEEDUP = 4.0
MIN_MICRO_SPEEDUP = 20.0
# Cold int8-tp2 series vs its per-step loop: ~16x measured on a 2-vCPU
# host, 1.3-1.7x when the sharded score GEMM rebuilt its graph per step.
MIN_TP_SERIES_SPEEDUP = 5.0


def _baseline_seconds(fn, repeat=3):
    return min(timeit.repeat(fn, number=1, repeat=repeat))


def test_fig8_grid_fast_path(fastest_round):
    cells = bench._grid_cells(quick=False)
    bench._run_grid(cells, exact=False)  # warm imports and code paths

    def cold_fast():
        clear_caches()
        bench._run_grid(cells, exact=False)

    fast_s = fastest_round(cold_fast)

    def baseline():
        with bench.pre_pr_baseline():
            bench._run_grid(cells, exact=True)

    exact_s = _baseline_seconds(baseline)
    assert exact_s / fast_s >= MIN_GRID_SPEEDUP, (
        f"fig-8 grid fast path regressed: {exact_s / fast_s:.1f}x "
        f"(floor {MIN_GRID_SPEEDUP}x)")

    # The fast path must stay numerically indistinguishable from the loop.
    clear_caches()
    err = bench._max_rel_err(bench._run_grid(cells, exact=True),
                             bench._run_grid(cells, exact=False))
    assert err <= 1e-9


def test_decode_pricing_micro(fastest_round):
    model = get_model("opt-6.7b")
    sim = InferenceSimulator(get_platform("spr"))
    request = InferenceRequest(batch_size=4, input_len=128, output_len=512)
    sim.run(model, request)  # warm

    def cold_fast():
        clear_caches()
        sim.run(model, request)

    fast_s = fastest_round(cold_fast)

    def baseline():
        with bench.pre_pr_baseline():
            sim.run(model, request, exact=True)

    exact_s = _baseline_seconds(baseline)
    assert exact_s / fast_s >= MIN_MICRO_SPEEDUP, (
        f"decode pricing fast path regressed: {exact_s / fast_s:.1f}x "
        f"(floor {MIN_MICRO_SPEEDUP}x)")

    # The per-step series (what every replica's step-cost table is built
    # from) reads the same closed-form walk: the same 511 steps, cold,
    # against the same per-step baseline and floor.
    executor = sim._executor(model, request)
    kv_start = request.input_len
    kv_end = kv_start + request.decode_steps

    def cold_series():
        clear_caches()
        executor.time_decode_series(model, request.batch_size, kv_start,
                                    kv_end)

    series_s = _baseline_seconds(cold_series, repeat=5)
    assert exact_s / series_s >= MIN_MICRO_SPEEDUP, (
        f"decode series fast path regressed: {exact_s / series_s:.1f}x "
        f"(floor {MIN_MICRO_SPEEDUP}x)")


def test_tp_decode_series(fastest_round):
    # TP floors the sharded attention score GEMM's context length, so the
    # series prices that op step by step; this guards that it does so
    # without rebuilding the backend graph at every step.
    model = get_model("opt-6.7b")
    sim = InferenceSimulator(get_platform("spr"),
                             backend=parse_backend("int8-tp2"))
    request = InferenceRequest(batch_size=4, input_len=128, output_len=512)
    executor = sim.replica_executor(model, request.batch_size)
    kv_start = request.input_len
    kv_end = kv_start + request.decode_steps

    def cold_series():
        clear_caches()
        executor.time_decode_series(model, request.batch_size, kv_start,
                                    kv_end)

    def cold_steps():
        clear_caches()
        for kv in range(kv_start, kv_end):
            executor.decode_step(model, request.batch_size, kv)

    cold_series()  # warm imports and code paths
    series_s = fastest_round(cold_series)
    steps_s = _baseline_seconds(cold_steps)
    assert steps_s / series_s >= MIN_TP_SERIES_SPEEDUP, (
        f"TP decode series regressed: {steps_s / series_s:.1f}x "
        f"(floor {MIN_TP_SERIES_SPEEDUP}x)")
