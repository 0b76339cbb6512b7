"""Shared helpers for the per-figure benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark executes one registered experiment (a full figure/table
regeneration), prints the paper-shaped rows, and asserts the figure's
qualitative claims.
"""

import time

import pytest


@pytest.fixture
def run_report(benchmark):
    """Benchmark one experiment by id and print its rendered table."""
    from repro.experiments import run_experiment

    def _run(experiment_id: str):
        report = benchmark(run_experiment, experiment_id)
        print()
        print(report.render())
        return report

    return _run


@pytest.fixture
def fastest_round(benchmark):
    """Time a callable; return its fastest round in seconds.

    With pytest-benchmark enabled the rounds are its own: calibrated by
    ``benchmark(fn)``, or ``rounds`` rounds of one call each by
    ``benchmark.pedantic``. Under ``--benchmark-disable``,
    ``benchmark(fn)`` is one plain call and keeps no stats, so the
    rounds (``rounds``, or 3; that call is the first) are timed here
    with ``time.perf_counter``.
    """

    def timed(call):
        begin = time.perf_counter()
        call()
        return time.perf_counter() - begin

    def _time(fn, rounds=None):
        if benchmark.enabled:
            if rounds is None:
                benchmark(fn)
            else:
                benchmark.pedantic(fn, rounds=rounds, iterations=1)
            return benchmark.stats.stats.min
        first = timed(lambda: benchmark(fn))
        return min([first] + [timed(fn) for _ in range((rounds or 3) - 1)])

    return _time
