"""Bench: the cluster fast-forward must keep its speed and its parity.

The event-horizon fast-forward prices whole pure-decode stretches in
closed form instead of stepping every scheduler iteration, which is
what makes million-request cluster traces tractable. This gate runs the
quick (2k-request) variant of ``tools/bench.py --suite cluster`` and
asserts both halves of that contract:

* the fast loop beats the per-iteration reference (``exact=True``) by a
  generous floor — the measured quick-scale speedup is ~40x, the full
  100k-request record in ``BENCH_cluster.json`` is higher still, and
  the floor sits far below both so only a real regression trips it;
* every report field (per-replica integers exactly; times to 1e-9
  relative) agrees between the two modes, so the speed never comes at
  the price of a different simulation outcome.

Run with::

    pytest benchmarks/test_cluster_fastforward.py --benchmark-only
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench  # noqa: E402  (tools/bench.py)

MIN_CLUSTER_SPEEDUP = 12.0
MAX_CLUSTER_REL_ERR = 1e-9
QUICK_REQUESTS = 2_000


def test_cluster_fastforward_speed_and_parity(fastest_round):
    bench._cluster_run(QUICK_REQUESTS, exact=False)  # warm imports

    fast_report = None

    def fast():
        nonlocal fast_report
        _, fast_report = bench._cluster_run(QUICK_REQUESTS, exact=False)

    fast_s = fastest_round(fast, rounds=3)

    exact_s, exact_report = bench._cluster_run(QUICK_REQUESTS, exact=True)

    speedup = exact_s / fast_s
    assert speedup >= MIN_CLUSTER_SPEEDUP, (
        f"cluster fast-forward regressed: {speedup:.1f}x "
        f"(floor {MIN_CLUSTER_SPEEDUP}x)")

    err = bench._cluster_rel_err(exact_report, fast_report)
    assert err <= MAX_CLUSTER_REL_ERR, (
        f"fast-forward diverged from the per-iteration loop: "
        f"max rel err {err:.2e} (bound {MAX_CLUSTER_REL_ERR:.0e})")
