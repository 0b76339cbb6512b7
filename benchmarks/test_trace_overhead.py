"""Bench: tracing must cost nothing when disabled.

Every hot loop in the scheduler/cluster layer now carries trace emission
guarded by ``if tracer.enabled:``. The contract is that the default
(:data:`~repro.trace.NOOP_TRACER`) path pays only that attribute read —
no span construction, no argument dicts. This bench runs each batching
policy (static, continuous, chunked prefill — all one ``ReplicaNode``
loop) over a sizeable arrival stream with an
explicit :class:`~repro.trace.NoopTracer` and compares against the
default call (the same noop path — defaults *are* the noop tracer, so
this guards the guard: if someone makes emission unconditional or puts
work ahead of the ``enabled`` check, both legs inherit it and the
recording comparison below catches the cost).

Two assertions:

* explicit NoopTracer within **2%** of the default call (ISSUE bound;
  identical code path, so only a broken guard or pathological tracer
  dispatch can trip it);
* a :class:`~repro.trace.RecordingTracer` run stays within a loose
  informational factor — recording is allowed to cost real time, but a
  blowup here means emission crept inside an inner loop it should not
  be in.

Run with::

    pytest benchmarks/test_trace_overhead.py --benchmark-only
"""

import timeit

import pytest

from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import poisson_arrivals
from repro.serving.scheduler import BatchingSimulator
from repro.trace import NoopTracer, RecordingTracer
from repro.workloads.generator import chatbot_workload

MAX_NOOP_OVERHEAD = 0.02     # the ISSUE's bound: <2% vs the untraced call
# Informational ceiling for full recording, relative to the *untraced*
# run. The event-horizon fast-forward cut the untraced denominator ~40x
# (a 48-request run now simulates in ~1 ms), so recording's fixed
# ~7 µs/span cost reads as ~8x rather than the pre-fast-forward ~2x.
# The ceiling guards the failure mode, not the ratio's absolute value:
# emission moving inside the per-step loop multiplies the span count by
# the coalesced-run length (10-60 here) and blows far past 20x.
MAX_RECORDING_FACTOR = 20.0

REQUESTS = 48
RATE = 4.0
SEED = 7


def _scheduler_and_arrivals():
    simulator = BatchingSimulator(get_platform("spr"),
                                  get_model("llama2-7b"), max_batch=8)
    arrivals = poisson_arrivals(RATE, REQUESTS, chatbot_workload(),
                                seed=SEED)
    return simulator, arrivals


def _paired_min_ratio(fn_a, fn_b, rounds=15, number=40):
    """min over rounds of time(fn_a)/time(fn_b), legs timed back-to-back.

    Comparing a long benchmark-fixture run against a short timeit run
    biases the ratio (thermal/allocator drift lands on one leg only).
    Pairing the legs within each round means bursty host noise (CPU
    steal, frequency excursions) hits both legs of a round together and
    cancels in that round's ratio; taking the *min* ratio then picks the
    quietest round. A real systematic overhead inflates every round's
    ratio and survives the min — noise does not. Each round times
    *number* back-to-back runs: the fast-forward cut a single untraced
    run to ~1 ms, where scheduler jitter alone is a few percent.
    """
    best = float("inf")
    for _ in range(rounds):
        t_a = timeit.timeit(fn_a, number=number)
        t_b = timeit.timeit(fn_b, number=number)
        best = min(best, t_a / t_b)
    return best


@pytest.mark.parametrize("runner", ["run_static", "run_continuous",
                                    "run_chunked"])
def test_noop_tracer_overhead(benchmark, runner):
    simulator, arrivals = _scheduler_and_arrivals()
    run = getattr(simulator, runner)
    run(arrivals)  # warm caches and code paths

    noop = NoopTracer()
    benchmark(lambda: run(arrivals, tracer=noop))

    overhead = _paired_min_ratio(lambda: run(arrivals, tracer=noop),
                                 lambda: run(arrivals)) - 1.0
    assert overhead <= MAX_NOOP_OVERHEAD, (
        f"NoopTracer costs {overhead:+.1%} over the untraced {runner} "
        f"(bound {MAX_NOOP_OVERHEAD:.0%}): a tracer guard is broken or "
        "emission work moved ahead of the `tracer.enabled` check")

    # Both runs must produce identical simulation outcomes.
    untraced = run(arrivals)
    traced = run(arrivals, tracer=NoopTracer())
    assert untraced.makespan_s == traced.makespan_s
    assert len(untraced.completed) == len(traced.completed)


def test_recording_tracer_stays_sane(benchmark):
    simulator, arrivals = _scheduler_and_arrivals()
    simulator.run_continuous(arrivals)  # warm

    benchmark(lambda: simulator.run_continuous(arrivals,
                                               tracer=RecordingTracer()))

    factor = _paired_min_ratio(
        lambda: simulator.run_continuous(arrivals,
                                         tracer=RecordingTracer()),
        lambda: simulator.run_continuous(arrivals),
        rounds=7, number=3)
    assert factor <= MAX_RECORDING_FACTOR, (
        f"recording costs {factor:.1f}x the untraced run (ceiling "
        f"{MAX_RECORDING_FACTOR}x): span emission has crept into an "
        "inner loop")

    tracer = RecordingTracer()
    report = simulator.run_continuous(arrivals, tracer=tracer)
    # Every completed request recorded a root span.
    assert len(tracer.trace.request_ids()) == len(report.completed)
