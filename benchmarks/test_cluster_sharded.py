"""Bench: sharding must not cost more than it saves; vectorized exact wins.

Two gates over the quick variants of ``tools/bench.py --suite cluster``,
mirroring the fast-forward gate's structure (speed floor + bit-parity):

* ``cluster_sharded`` — ``run_sharded(workers=4)`` against the
  single-process fleet loop on the identical ShardRouter(16) workload.
  The single-process loop now advances only the replica each arrival
  is routed to, the group-local advancement that workers used to have
  over it, so what remains for workers is parallelism minus fork,
  transfer and merge. At this quick size (20k requests) on a 2-vCPU
  VM, 16 single/sharded pairs measured a ratio of 0.95-1.53x (median
  ~1.15x), against 2.6-3.7x when the loop still advanced all 16
  replicas per arrival. The floor therefore only guards against the
  sharded path costing clearly more than it saves: it sits below the
  observed band, so scheduler jitter does not trip it. The algorithmic
  guard, one ``advance_to`` per arrival, is the deterministic count
  test in ``tests/test_cluster_lazy.py``.
* ``exact_vectorized`` — exact mode pricing pure-decode stretches with
  one numpy series call per stretch against the per-iteration scalar
  reference. Measured ~4.6-5.2x at quick scale, higher at the full
  4k-request record.

Both gates also assert parity: integers exactly, times to 1e-9
relative. The speed never comes at the price of a different outcome.

Run with::

    pytest benchmarks/test_cluster_sharded.py --benchmark-only
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench  # noqa: E402  (tools/bench.py)

MIN_SHARDED_SPEEDUP = 0.8
MIN_VECTORIZED_SPEEDUP = 3.5
MAX_REL_ERR = 1e-9
QUICK_REQUESTS = 20_000


def test_sharded_speed_and_parity(benchmark):
    from repro.workloads.streams import ShardableStream

    arrivals = list(ShardableStream(rate_per_s=bench.SHARDED_RATE_PER_S,
                                    count=QUICK_REQUESTS,
                                    spec=bench.SHARDED_SPEC,
                                    seed=bench.CLUSTER_SEED).full())
    _, base_report = bench._sharded_run(arrivals, workers=1)
    base_s, _ = bench._sharded_run(arrivals, workers=1)  # timed, warm

    sharded_report = None

    def sharded():
        nonlocal sharded_report
        _, sharded_report = bench._sharded_run(
            arrivals, workers=bench.SHARDED_WORKERS)

    benchmark.pedantic(sharded, rounds=3, iterations=1)
    sharded_s = benchmark.stats.stats.min

    speedup = base_s / sharded_s
    assert speedup >= MIN_SHARDED_SPEEDUP, (
        f"sharded runner regressed: {speedup:.2f}x "
        f"(floor {MIN_SHARDED_SPEEDUP}x)")

    err = bench._cluster_rel_err(base_report, sharded_report)
    assert err <= MAX_REL_ERR, (
        f"sharded report diverged from single-process: "
        f"max rel err {err:.2e} (bound {MAX_REL_ERR:.0e})")


def test_vectorized_exact_speed_and_parity(benchmark):
    quick_requests = 300
    _, step_report = bench._exact_mode_run(quick_requests, exact="step")
    step_s, _ = bench._exact_mode_run(quick_requests, exact="step")

    vec_report = None

    def vectorized():
        nonlocal vec_report
        _, vec_report = bench._exact_mode_run(quick_requests,
                                              exact="vectorized")

    benchmark.pedantic(vectorized, rounds=3, iterations=1)
    vec_s = benchmark.stats.stats.min

    speedup = step_s / vec_s
    assert speedup >= MIN_VECTORIZED_SPEEDUP, (
        f"vectorized exact mode regressed: {speedup:.2f}x "
        f"(floor {MIN_VECTORIZED_SPEEDUP}x)")

    err = bench._cluster_rel_err(step_report, vec_report)
    assert err <= MAX_REL_ERR, (
        f"vectorized exact diverged from the per-step loop: "
        f"max rel err {err:.2e} (bound {MAX_REL_ERR:.0e})")
