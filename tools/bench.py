#!/usr/bin/env python
"""Performance benchmarks for the simulation hot paths.

Two suites, each writing a JSON report so future PRs can track the
performance trajectory:

* ``--suite sweep`` (default, ``BENCH_sweep.json``) — the paper's fig-8
  grid priced with the pre-PR per-step decode loop (``exact=True``,
  pricing caches cleared first) and with the analytical fast path
  (:meth:`OperatorExecutor.time_decode_range`), cold and warm, plus a
  long-decode pricing microbenchmark.
* ``--suite cluster`` (``BENCH_cluster.json``) — a 100k-request,
  three-replica serving run stepped per iteration (``exact=True``) vs.
  the event-horizon fast-forward loop, reporting simulated requests per
  wall-second and the speedup.
* ``--suite fluid`` (merges a ``fluid`` key into
  ``BENCH_cluster.json``) — the analytic steady-state solver vs. exact
  fast-forward simulation on a 10-point provisioning sweep, with the
  per-regime error envelope.

Every suite cross-checks that the fast path agrees with its exact
reference (max relative error is recorded in the JSON), and every
report carries an ``environment`` stamp (host CPUs, git revision) so
wall-clock numbers can be compared across machines and PRs.

Usage::

    PYTHONPATH=src python tools/bench.py
    PYTHONPATH=src python tools/bench.py --suite cluster
    PYTHONPATH=src python tools/bench.py --quick   # tiny runs, smoke tests
"""

import argparse
import contextlib
import json
import os
import sys
import time
import timeit
from types import SimpleNamespace

import repro.engine.backend as _backend_mod
import repro.engine.executor as _executor_mod
import repro.gemm.efficiency as _efficiency_mod
import repro.models.opgraph as _opgraph_mod
from repro.engine.executor import _ELEMENTWISE_COMPUTE_EFFICIENCY, OpTiming
from repro.gemm.efficiency import gemm_efficiency
from repro.engine.inference import InferenceSimulator, MemoryCapacityError
from repro.engine.request import EVALUATED_BATCH_SIZES, InferenceRequest
from repro.experiments._sweeps import clear_caches
from repro.hardware.registry import get_platform
from repro.models.registry import evaluated_models, get_model


def _seed_time_gemm(self, op, memory_s):
    """The seed revision's ``OperatorExecutor._time_gemm``, verbatim.

    Re-derives engine peaks and the elementwise rate per op and builds an
    ``OpTiming`` per candidate engine, exactly as the pre-PR executor did
    (the current one precomputes peaks and constructs only the winner).
    """
    best = None
    for engine in self._engines:
        eff = gemm_efficiency(engine, op.m, op.n, op.k)
        peak = engine.peak(self.dtype) * self.compute_scale
        compute_s = op.gemm_flops / (peak * eff)
        if op.extra_flops:
            compute_s += op.extra_flops / (
                self._vector_like.peak(self.dtype) * self.compute_scale
                * _ELEMENTWISE_COMPUTE_EFFICIENCY)
        overhead_s = engine.launch_overhead_s * op.kernel_launches
        timing = OpTiming(
            op=op,
            time_s=max(compute_s, memory_s) + overhead_s,
            compute_s=compute_s,
            memory_s=memory_s,
            overhead_s=overhead_s,
            engine_name=engine.name,
            efficiency=eff,
            memory_bound=memory_s >= compute_s,
        )
        if best is None or timing.time_s < best.time_s:
            best = timing
    assert best is not None
    return best


def _seed_time_bandwidth_op(self, op, memory_s):
    """The seed revision's ``OperatorExecutor._time_bandwidth_op``."""
    engine = self._vector_like
    compute_s = 0.0
    if op.extra_flops:
        compute_s = op.extra_flops / (
            engine.peak(self.dtype) * self.compute_scale
            * _ELEMENTWISE_COMPUTE_EFFICIENCY)
    overhead_s = engine.launch_overhead_s * op.kernel_launches
    return OpTiming(
        op=op,
        time_s=max(compute_s, memory_s) + overhead_s,
        compute_s=compute_s,
        memory_s=memory_s,
        overhead_s=overhead_s,
        engine_name=engine.name,
        efficiency=_ELEMENTWISE_COMPUTE_EFFICIENCY,
        memory_bound=memory_s >= compute_s,
    )


@contextlib.contextmanager
def pre_pr_baseline():
    """Reproduce the pre-PR cost model for an honest speedup baseline.

    The seed code rebuilt operator graphs, re-evaluated GEMM efficiency
    curves, and re-derived engine peaks on every decode step; timing the
    ``exact=True`` loop with the memoization layers swapped out for their
    unmemoized originals and the seed pricing loops restored measures
    exactly that baseline (cross-checked against a checkout of the seed
    revision: both price the fig-8 grid in ~0.43 s on the reference box).
    """
    patched = [
        (_opgraph_mod, "_decode_step_ops_cached"),
        (_opgraph_mod, "_prefill_ops_cached"),
        (_efficiency_mod, "_gemm_efficiency_cached"),
        (_executor_mod, "_gemm_efficiency_cached"),
        # The baseline backend sources its op graphs through these names.
        (_backend_mod, "_decode_step_ops_cached"),
        (_backend_mod, "_prefill_ops_cached"),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name in patched]
    executor_cls = _executor_mod.OperatorExecutor
    seed_methods = [
        (executor_cls, "_time_gemm", _seed_time_gemm),
        (executor_cls, "_time_bandwidth_op", _seed_time_bandwidth_op),
    ]
    saved_methods = [(cls, name, getattr(cls, name))
                     for cls, name, _ in seed_methods]
    try:
        for mod, name, fn in saved:
            setattr(mod, name, fn.__wrapped__)
        for cls, name, fn in seed_methods:
            setattr(cls, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
        for cls, name, fn in saved_methods:
            setattr(cls, name, fn)


def _grid_cells(quick: bool):
    models = evaluated_models()
    batches = list(EVALUATED_BATCH_SIZES)
    platforms = ["icl", "spr"]
    if quick:
        models = models[:2]
        batches = batches[:2]
        platforms = ["spr"]
    cells = []
    for model in models:
        for name in platforms:
            sim = InferenceSimulator(get_platform(name))
            for batch in batches:
                cells.append((sim, model, InferenceRequest(batch_size=batch)))
    return cells


def _run_grid(cells, exact: bool):
    results = []
    for sim, model, request in cells:
        try:
            results.append(sim.run(model, request, exact=exact))
        except MemoryCapacityError:
            results.append(None)
    return results


def _max_rel_err(exact_results, fast_results) -> float:
    worst = 0.0
    for e, f in zip(exact_results, fast_results):
        if e is None or f is None:
            continue
        for key, want in e.summary().items():
            got = f.summary()[key]
            worst = max(worst,
                        abs(got - want) / max(abs(got), abs(want), 1e-300))
    return worst


def bench_fig8_sweep(quick: bool, repeat: int) -> dict:
    """Time the fig-8 grid: per-step loop vs analytical decode pricing."""
    cells = _grid_cells(quick)
    _run_grid(cells, exact=False)  # warm imports and code paths

    def baseline():
        with pre_pr_baseline():
            _run_grid(cells, exact=True)

    def cold_fast():
        clear_caches()
        _run_grid(cells, exact=False)

    # The fast legs finish in tens of milliseconds, so scheduler noise
    # distorts them far more than the ~half-second baseline; they are
    # cheap enough to repeat heavily instead.
    exact_s = min(timeit.repeat(baseline, number=1, repeat=repeat))
    fast_cold_s = min(timeit.repeat(cold_fast, number=1, repeat=5 * repeat))
    fast_warm_s = min(timeit.repeat(
        lambda: _run_grid(cells, exact=False), number=1, repeat=5 * repeat))

    clear_caches()
    exact_results = _run_grid(cells, exact=True)
    fast_results = _run_grid(cells, exact=False)
    return {
        "cells": len(cells),
        "rows": sum(1 for r in fast_results if r is not None),
        "exact_s": exact_s,
        "fast_cold_s": fast_cold_s,
        "fast_warm_s": fast_warm_s,
        "speedup_cold": exact_s / fast_cold_s,
        "speedup_warm": exact_s / fast_warm_s,
        "max_rel_err": _max_rel_err(exact_results, fast_results),
    }


def bench_decode_micro(quick: bool, repeat: int) -> dict:
    """Time one long-decode request: per-step loop vs time_decode_range."""
    model = get_model("opt-6.7b")
    sim = InferenceSimulator(get_platform("spr"))
    request = InferenceRequest(batch_size=4, input_len=128,
                               output_len=64 if quick else 512)

    def baseline():
        with pre_pr_baseline():
            sim.run(model, request, exact=True)

    def cold_fast():
        clear_caches()
        sim.run(model, request, exact=False)

    exact_s = min(timeit.repeat(baseline, number=1, repeat=repeat))
    fast_s = min(timeit.repeat(cold_fast, number=1, repeat=5 * repeat))
    clear_caches()
    err = _max_rel_err([sim.run(model, request, exact=True)],
                       [sim.run(model, request, exact=False)])
    return {
        "model": model.name,
        "platform": "SPR-Max-9468",
        "batch_size": request.batch_size,
        "decode_steps": request.decode_steps,
        "exact_s": exact_s,
        "fast_s": fast_s,
        "speedup": exact_s / fast_s,
        "max_rel_err": err,
    }


# Decode-heavy request mix for the cluster suite: short prompts, long
# generations, so pure-decode stretches dominate — the regime the
# event-horizon fast-forward targets (and the worst case for the
# per-iteration loop).
CLUSTER_SPEC = SimpleNamespace(input_len_range=(16, 64),
                               output_len_range=(96, 192))
CLUSTER_REPLICAS = 3
CLUSTER_MAX_BATCH = 8
CLUSTER_RATE_PER_S = 2.0  # saturates the 3-replica SPR fleet
CLUSTER_SEED = 7


def _cluster_run(count: int, exact: bool, mixed: bool = False):
    """One cold cluster run; returns (wall seconds, ClusterReport)."""
    from repro.cluster import ClusterSimulator, RoundRobinRouter
    from repro.workloads.streams import stream_workload

    clear_caches()
    simulator = ClusterSimulator(
        _mixed_fleet() if mixed else _plain_fleet(),
        RoundRobinRouter(), exact=exact)
    arrivals = stream_workload(CLUSTER_SPEC, CLUSTER_RATE_PER_S,
                               count=count, seed=CLUSTER_SEED)
    begin = time.perf_counter()
    report = simulator.run(arrivals)
    return time.perf_counter() - begin, report


def _plain_fleet():
    from repro.cluster import ReplicaNode

    model = get_model("llama2-7b")
    return [ReplicaNode(f"spr-{i}", get_platform("spr"), model,
                        max_batch=CLUSTER_MAX_BATCH)
            for i in range(CLUSTER_REPLICAS)]


def _mixed_fleet():
    """2x BF16 + 2x INT8-over-TP2 SPR replicas (heterogeneous backends)."""
    from repro.cluster import ClusterConfig, ReplicaSpec
    from repro.engine.backend import parse_backend

    model = get_model("llama2-7b")
    spr = get_platform("spr")
    return ClusterConfig([
        ReplicaSpec(spr, model, count=2, max_batch=CLUSTER_MAX_BATCH),
        ReplicaSpec(spr, model, count=2, max_batch=CLUSTER_MAX_BATCH,
                    backend=parse_backend("int8-tp2")),
    ]).build_fleet()


def _cluster_rel_err(exact_report, fast_report) -> float:
    """Worst relative disagreement across report and per-request fields."""
    worst = 0.0

    def update(want, got):
        nonlocal worst
        worst = max(worst,
                    abs(got - want) / max(abs(got), abs(want), 1e-300))

    for field in ("makespan_s", "throughput", "mean_ttft_s"):
        update(getattr(exact_report, field), getattr(fast_report, field))
    for want, got in zip(exact_report.node_stats, fast_report.node_stats):
        update(want.busy_s, got.busy_s)
        if (want.iterations, want.completed, want.generated_tokens) != \
                (got.iterations, got.completed, got.generated_tokens):
            return float("inf")
    by_id = lambda reports: sorted(reports, key=lambda r: r.request_id)
    for want, got in zip(by_id(exact_report.completed),
                         by_id(fast_report.completed)):
        update(want.ttft_s, got.ttft_s)
        update(want.finish_s, got.finish_s)
    return worst


def bench_cluster(quick: bool, repeat: int) -> dict:
    """Time a saturated cluster run: per-iteration loop vs fast-forward.

    The exact leg is O(total scheduler iterations) and takes minutes at
    full scale, so it runs once; the fast leg is repeated (cold each
    time — the run includes building its step-cost tables).
    """
    count = 2_000 if quick else 100_000
    fast_s = None
    fast_report = None
    for _ in range(repeat):
        elapsed, report = _cluster_run(count, exact=False)
        if fast_s is None or elapsed < fast_s:
            fast_s, fast_report = elapsed, report
    exact_s, exact_report = _cluster_run(count, exact=True)
    return {
        "requests": count,
        "replicas": CLUSTER_REPLICAS,
        "max_batch": CLUSTER_MAX_BATCH,
        "rate_per_s": CLUSTER_RATE_PER_S,
        "iterations": sum(s.iterations for s in fast_report.node_stats),
        "sim_makespan_s": fast_report.makespan_s,
        "exact_s": exact_s,
        "fast_s": fast_s,
        "speedup": exact_s / fast_s,
        "requests_per_s": count / fast_s,
        "max_rel_err": _cluster_rel_err(exact_report, fast_report),
    }


def bench_cluster_mixed(quick: bool, repeat: int) -> dict:
    """Time the heterogeneous fleet: 2x BF16 + 2x INT8-TP2 replicas.

    Exercises per-backend cost tables under fast-forward: each replica's
    coalesced decode windows must price through its own backend's
    tables, and the exact reference must agree bit-for-bit on the
    integer trajectory.
    """
    count = 500 if quick else 20_000
    fast_s = None
    fast_report = None
    for _ in range(repeat):
        elapsed, report = _cluster_run(count, exact=False, mixed=True)
        if fast_s is None or elapsed < fast_s:
            fast_s, fast_report = elapsed, report
    exact_s, exact_report = _cluster_run(count, exact=True, mixed=True)
    return {
        "requests": count,
        "fleet": "2x bf16 + 2x int8-tp2 (SPR)",
        "max_batch": CLUSTER_MAX_BATCH,
        "rate_per_s": CLUSTER_RATE_PER_S,
        "iterations": sum(s.iterations for s in fast_report.node_stats),
        "sim_makespan_s": fast_report.makespan_s,
        "exact_s": exact_s,
        "fast_s": fast_s,
        "speedup": exact_s / fast_s,
        "requests_per_s": count / fast_s,
        "max_rel_err": _cluster_rel_err(exact_report, fast_report),
    }


# Sharded-simulation case: 16 replicas behind ShardRouter(16), run in one
# process and in worker processes. Both legs advance only the replica an
# arrival is routed to, so the gap between them is worker parallelism
# net of fork, transfer and merge. The workload is decode-heavy (long
# generations): long coalesced decode stretches are what a loop that
# advanced the whole fleet per arrival would keep splitting.
SHARDED_REPLICAS = 16
SHARDED_GROUPS = 16
SHARDED_WORKERS = 4
SHARDED_SPEC = SimpleNamespace(input_len_range=(16, 64),
                               output_len_range=(256, 512))
SHARDED_RATE_PER_S = 3.75  # saturates the 16-replica SPR fleet


def _sharded_run(arrivals, workers: int):
    """One cold sharded cluster run; returns (wall seconds, report)."""
    from repro.cluster import (
        ClusterConfig,
        ReplicaSpec,
        ShardRouter,
        run_sharded,
    )

    clear_caches()
    config = ClusterConfig([ReplicaSpec(get_platform("spr"),
                                        get_model("llama2-7b"),
                                        count=SHARDED_REPLICAS,
                                        max_batch=CLUSTER_MAX_BATCH)])
    begin = time.perf_counter()
    report = run_sharded(config, ShardRouter(SHARDED_GROUPS), arrivals,
                         workers=workers)
    return time.perf_counter() - begin, report


def bench_cluster_sharded(quick: bool, repeat: int) -> dict:
    """Time the sharded runner against the single-process fleet loop.

    Both legs run the identical ShardRouter(16) simulation over 16
    replicas, and both advance only the replica each arrival is routed
    to (the single-process loop reads ``Router.observes``), so the
    sharded leg's remaining advantage is worker parallelism, net of
    fork, transfer and merge: 0.95-1.5x on a 2-vCPU host at 20k
    requests. The legs start from the same materialized arrival list
    (with the fork start method, list arguments reach workers as
    copy-on-write pages, so neither leg pays stream regeneration); only
    the execution strategy differs. The legs alternate (single,
    sharded, single, sharded, ...) and each keeps its minimum wall
    time — timeit-style: on a shared host individual runs swing by
    ±25-40%, so min-of-cold-runs is the standard interference-free
    estimate, and alternating keeps either leg from systematically
    landing in the hotter tail of the suite.
    The sharded leg's minimum still pays fork, transfer, and merge
    every time. Parity is checked exactly like the exact/fast pair: a
    single bit of integer drift is a failure.
    """
    from repro.workloads.streams import ShardableStream

    count = 20_000 if quick else 1_000_000
    repeat = repeat if quick else 3
    arrivals = list(ShardableStream(rate_per_s=SHARDED_RATE_PER_S,
                                    count=count, spec=SHARDED_SPEC,
                                    seed=CLUSTER_SEED).full())
    base_s = None
    base_report = None
    sharded_s = None
    sharded_report = None
    for _ in range(repeat):
        elapsed, report = _sharded_run(arrivals, workers=1)
        if base_s is None or elapsed < base_s:
            base_s, base_report = elapsed, report
        elapsed, report = _sharded_run(arrivals, workers=SHARDED_WORKERS)
        if sharded_s is None or elapsed < sharded_s:
            sharded_s, sharded_report = elapsed, report
    return {
        "requests": count,
        "replicas": SHARDED_REPLICAS,
        "groups": SHARDED_GROUPS,
        "workers": SHARDED_WORKERS,
        "max_batch": CLUSTER_MAX_BATCH,
        "rate_per_s": SHARDED_RATE_PER_S,
        "output_len_range": list(SHARDED_SPEC.output_len_range),
        # Both legs advance group-locally, so sharding's win comes from
        # running workers on real cores: the host's core count is part
        # of the record.
        "host_cpus": os.cpu_count(),
        "iterations": sum(s.iterations for s in sharded_report.node_stats),
        "sim_makespan_s": sharded_report.makespan_s,
        "single_process_s": base_s,
        "sharded_s": sharded_s,
        "speedup": base_s / sharded_s,
        "requests_per_s": count / sharded_s,
        "max_rel_err": _cluster_rel_err(base_report, sharded_report),
    }


# Fairness-scheduler overhead case: run NEAR capacity (~0.9x the rate
# that saturates the fleet), not at overload. The VTC pick scans the
# ready prefix of the queue, so its cost is O(ready backlog); at
# overload the figure would measure backlog length, not the steady-state
# overhead a provisioned fleet actually pays. Shallow queues are the
# honest operating point for "what does fairness cost".
FAIRNESS_USERS = 12
FAIRNESS_RATE_PER_S = 1.8  # ~0.9x the 3-replica saturation point


def _fairness_run(arrivals, scheduler):
    """Wall seconds of one cold cluster run under the named scheduler."""
    from repro.cluster import (
        ClusterConfig,
        ClusterSimulator,
        ReplicaSpec,
        RoundRobinRouter,
    )

    clear_caches()
    fleet = ClusterConfig([ReplicaSpec(
        get_platform("spr"), get_model("llama2-7b"),
        count=CLUSTER_REPLICAS, max_batch=CLUSTER_MAX_BATCH,
        scheduler=scheduler)]).build_fleet()
    simulator = ClusterSimulator(fleet, RoundRobinRouter())
    begin = time.perf_counter()
    simulator.run(iter(arrivals))
    return time.perf_counter() - begin


def bench_fairness(quick: bool, repeat: int) -> dict:
    """Time admission schedulers against the built-in admission loop.

    Three legs over the identical materialized tenant stream: the
    built-in loop (scheduler=None) and the VTC/WSC fairness schedulers
    (whose pick/charge bookkeeping is the overhead being measured,
    reported as a ratio over the built-in loop). Legs alternate and
    keep their minimum wall time, like the sharded benchmark, to ride
    out neighbor noise.
    """
    from repro.workloads import TenantStream, TenantWorkloadSpec

    count = 2_000 if quick else 100_000
    spec = TenantWorkloadSpec(users=FAIRNESS_USERS, apps=2, zipf_s=1.2,
                              input_len_range=(16, 64),
                              output_len_range=(96, 192))
    arrivals = list(TenantStream(spec=spec, rate_per_s=FAIRNESS_RATE_PER_S,
                                 count=count, seed=CLUSTER_SEED).full())
    schedulers = (None, "vtc", "wsc")
    best = {}
    for _ in range(repeat):
        for scheduler in schedulers:
            key = scheduler or "none"
            elapsed = _fairness_run(arrivals, scheduler)
            if key not in best or elapsed < best[key]:
                best[key] = elapsed
    return {
        "requests": count,
        "users": FAIRNESS_USERS,
        "replicas": CLUSTER_REPLICAS,
        "max_batch": CLUSTER_MAX_BATCH,
        "rate_per_s": FAIRNESS_RATE_PER_S,
        "baseline_s": best["none"],
        "vtc_s": best["vtc"],
        "wsc_s": best["wsc"],
        "vtc_overhead": best["vtc"] / best["none"],
        "wsc_overhead": best["wsc"] / best["none"],
        "requests_per_s": count / best["vtc"],
    }


# Same operating point as ext_tiering: the 2x ICL-7B tier runs hot
# enough to spill bursts upward while every class still clears its bar.
TIERING_RATE_PER_S = 1.5


def _tiering_run(count: int, fleet: str, exact: bool):
    """One cold classified-workload run; returns (wall s, report, tiering)."""
    from repro.cluster import (
        ClusterConfig,
        ClusterSimulator,
        JoinShortestQueueRouter,
        ReplicaSpec,
        TieredRouter,
        tiering_report,
    )
    from repro.workloads import ClassMixStream

    clear_caches()
    stream = ClassMixStream(rate_per_s=TIERING_RATE_PER_S, count=count,
                            seed=CLUSTER_SEED)
    if fleet == "tiered":
        config = ClusterConfig([
            ReplicaSpec(get_platform("icl"), get_model("llama2-7b"),
                        count=2, max_batch=CLUSTER_MAX_BATCH),
            ReplicaSpec(get_platform("spr"), get_model("llama2-13b"),
                        count=2, max_batch=CLUSTER_MAX_BATCH),
        ])
        router = TieredRouter(stream.classifier())
    else:
        config = ClusterConfig([ReplicaSpec(
            get_platform("spr"), get_model("llama2-13b"), count=4,
            max_batch=CLUSTER_MAX_BATCH)])
        router = JoinShortestQueueRouter()
    simulator = ClusterSimulator(config.build_fleet(), router, exact=exact)
    begin = time.perf_counter()
    report = simulator.run(stream.full())
    elapsed = time.perf_counter() - begin
    return elapsed, report, tiering_report(report, stream.full(),
                                           stream.classifier())


def bench_tiering(quick: bool, repeat: int) -> dict:
    """Tiered routing: fast-path parity and the $/Mtok claim.

    Three legs over the identical classified stream: the tiered
    heterogeneous fleet on the event-horizon fast path, the same fleet
    stepped per iteration (``exact=True`` — the parity reference, so
    mixed-model tier accounting inherits the cluster suite's 1e-9
    contract), and the one-size 4x SPR-13B fleet the experiment
    benchmarks against. Records the tiered-vs-one-size $/Mtok ratio at
    their respective class-SLO attainments.
    """
    count = 600 if quick else 5_000
    legs = (("tiered", False), ("tiered", True), ("onesize", False))
    best = {}
    results = {}
    for _ in range(repeat):
        for fleet, exact in legs:
            key = f"{fleet}_{'exact' if exact else 'fast'}"
            elapsed, report, tiering = _tiering_run(count, fleet, exact)
            if key not in best or elapsed < best[key]:
                best[key] = elapsed
                results[key] = (report, tiering)
    fast_report, fast_tiering = results["tiered_fast"]
    exact_report, _ = results["tiered_exact"]
    onesize_report, onesize_tiering = results["onesize_fast"]
    return {
        "requests": count,
        "rate_per_s": TIERING_RATE_PER_S,
        "max_batch": CLUSTER_MAX_BATCH,
        "tiered_fast_s": best["tiered_fast"],
        "tiered_exact_s": best["tiered_exact"],
        "speedup": best["tiered_exact"] / best["tiered_fast"],
        "requests_per_s": count / best["tiered_fast"],
        "max_rel_err": _cluster_rel_err(exact_report, fast_report),
        "counters_match": (fast_report.router_counters
                           == exact_report.router_counters),
        "tiered_fleet_usd": fast_report.fleet_price_usd,
        "tiered_dollars_per_mtok": fast_tiering.dollars_per_mtok,
        "tiered_attainment": fast_tiering.attainment,
        "tiered_spills": fast_tiering.spills,
        "onesize_fleet_usd": onesize_report.fleet_price_usd,
        "onesize_dollars_per_mtok": onesize_tiering.dollars_per_mtok,
        "onesize_attainment": onesize_tiering.attainment,
        "dpm_ratio": (onesize_tiering.dollars_per_mtok
                      / fast_tiering.dollars_per_mtok),
    }


# Provisioning sweep for the fluid suite: how many SPR replicas serve a
# fixed offered load? The rate is pinned well above one replica's
# saturation so the ten fleet sizes cross all three regimes —
# overloaded (small k), near-saturation (the knee), stable (large k).
FLUID_POINTS = 10
FLUID_OVERPROVISION = 5.5


def _fluid_configs():
    from repro.cluster import ClusterConfig, ReplicaSpec

    model = get_model("llama2-7b")
    spr = get_platform("spr")
    return [ClusterConfig([ReplicaSpec(spr, model, count=k,
                                       max_batch=CLUSTER_MAX_BATCH)])
            for k in range(1, FLUID_POINTS + 1)]


def bench_fluid(quick: bool, repeat: int) -> dict:
    """Fluid steady-state solver vs exact fast-forward on a sweep.

    The tentpole claim: a 10-point provisioning what-if (1..10 SPR
    replicas at one offered load) answered analytically in milliseconds
    instead of simulated minutes. Both legs start cold (the fluid leg's
    cold time includes building its shared cost tables; the warm time
    is what every subsequent what-if costs). The error envelope vs the
    exact simulator is recorded per regime: stable points carry the
    accuracy contract, near-saturation is reported but not trusted,
    overload is checked to be *flagged*, not extrapolated.
    """
    from repro.cluster import fluid
    from repro.optim.advisor import measure_fleet
    from repro.serving.slo import SLO

    count = 1_500 if quick else 20_000
    slo = SLO()
    configs = _fluid_configs()
    rate = FLUID_OVERPROVISION * fluid.saturation_rate(
        configs[0], spec=CLUSTER_SPEC, slo=slo)
    scenarios = [fluid.FluidScenario(config=config, rate_per_s=rate,
                                     label=f"{k + 1}x SPR")
                 for k, config in enumerate(configs)]

    def solve_all():
        return fluid.solve_grid(scenarios, spec=CLUSTER_SPEC, slo=slo,
                                router="uniform")

    clear_caches()
    begin = time.perf_counter()
    reports = solve_all()
    fluid_cold_s = time.perf_counter() - begin
    fluid_warm_s = None
    for _ in range(repeat):
        begin = time.perf_counter()
        solve_all()
        elapsed = time.perf_counter() - begin
        if fluid_warm_s is None or elapsed < fluid_warm_s:
            fluid_warm_s = elapsed

    clear_caches()
    sim_s = 0.0
    measured = []
    for config in configs:
        begin = time.perf_counter()
        attainment, goodput, throughput, dollars = measure_fleet(
            config, rate, spec=CLUSTER_SPEC, slo=slo, count=count,
            seed=CLUSTER_SEED)
        sim_s += time.perf_counter() - begin
        measured.append((attainment, goodput, throughput, dollars))

    def rel_err(fluid_value, sim_value):
        return abs(fluid_value - sim_value) / max(abs(sim_value), 1e-300)

    envelope = {}
    points = []
    for k, (report, (attainment, goodput, throughput, dollars)) in \
            enumerate(zip(reports, measured)):
        errors = {
            "throughput": rel_err(report.throughput_tokens_per_s,
                                  throughput),
            "goodput": rel_err(report.goodput_tokens_per_s, goodput),
            "dollars_per_mtok": rel_err(report.dollars_per_mtok, dollars),
        }
        bucket = envelope.setdefault(
            report.regime, {"points": 0, "throughput": 0.0,
                            "goodput": 0.0, "dollars_per_mtok": 0.0,
                            "max_sim_attainment": 0.0})
        bucket["points"] += 1
        bucket["max_sim_attainment"] = max(bucket["max_sim_attainment"],
                                           attainment)
        for metric, err in errors.items():
            bucket[metric] = max(bucket[metric], err)
        points.append({
            "replicas": k + 1,
            "regime": report.regime,
            "rho": report.max_rho,
            "fluid_throughput": report.throughput_tokens_per_s,
            "sim_throughput": throughput,
            "fluid_attainment": report.attainment,
            "sim_attainment": attainment,
            "fluid_dollars_per_mtok": report.dollars_per_mtok,
            "sim_dollars_per_mtok": dollars,
        })
    # Overload must be flagged, never silently extrapolated: every
    # fluid-overloaded point should also drown the simulator.
    overloaded = [p for p in points if p["regime"] == "overloaded"]
    overload_flag_agrees = all(p["sim_attainment"] < 0.5
                               for p in overloaded)
    return {
        "points": FLUID_POINTS,
        "rate_per_s": rate,
        "max_batch": CLUSTER_MAX_BATCH,
        "sim_requests": count,
        "fluid_cold_s": fluid_cold_s,
        "fluid_warm_s": fluid_warm_s,
        "sim_s": sim_s,
        "speedup": sim_s / fluid_cold_s,
        "speedup_warm": sim_s / fluid_warm_s,
        "overload_flag_agrees": overload_flag_agrees,
        "envelope": envelope,
        "sweep": points,
    }


# Fleet-mix suite: the ext_fleetmix fleet shape — CPU, GPU, and hybrid
# replicas mixed in one fleet — at a load the mix comfortably sustains.
FLEETMIX_RATE_PER_S = 2.5
FLEETMIX_MIX = (("simple", 0.5), ("standard", 0.35), ("reasoning", 0.15))


def _fleetmix_config():
    from repro.analysis.cost import list_price
    from repro.cluster import ClusterConfig, ReplicaSpec
    from repro.engine.backend import HybridBackend

    spr, a100 = get_platform("spr"), get_platform("a100")
    model = get_model("llama2-13b")
    return ClusterConfig([
        ReplicaSpec(spr, model, count=2, max_batch=CLUSTER_MAX_BATCH),
        ReplicaSpec(a100, model, count=1, max_batch=CLUSTER_MAX_BATCH),
        ReplicaSpec(spr, model, count=1, max_batch=CLUSTER_MAX_BATCH,
                    backend=HybridBackend(gpu=a100),
                    price_usd=(list_price(spr.name)
                               + list_price(a100.name))),
    ])


def _fleetmix_run(count: int, exact: bool):
    """One cold mixed CPU/GPU/hybrid run; returns (wall s, report)."""
    from repro.cluster import ClusterSimulator, TieredRouter
    from repro.workloads import ClassMixStream

    clear_caches()
    stream = ClassMixStream(rate_per_s=FLEETMIX_RATE_PER_S, count=count,
                            mix=FLEETMIX_MIX, seed=CLUSTER_SEED)
    simulator = ClusterSimulator(_fleetmix_config().build_fleet(),
                                 TieredRouter(stream.classifier()),
                                 exact=exact)
    begin = time.perf_counter()
    report = simulator.run(stream.full())
    return time.perf_counter() - begin, report


def bench_fleetmix(quick: bool, repeat: int) -> dict:
    """Mixed CPU/GPU/hybrid fleet: fast-path parity and fluid envelope.

    Two legs over the identical classified stream on the ext_fleetmix
    fleet shape (2x SPR + 1x A100 + 1x SPR+A100 hybrid, all serving
    LLaMA2-13B): event-horizon fast-forward vs per-iteration stepping
    (``exact=True``), extending the cluster suite's 1e-9 parity
    contract to fleets whose replicas price prefill on a GPU executor
    with PCIe streaming (the hybrid backend's comm term). A third leg
    checks the fluid steady-state solver against the fast simulator on
    the same mixed fleet — the envelope ``recommend_fleet`` relies on
    when ranking CPU/GPU/hybrid mixes.
    """
    from repro.cluster import fluid
    from repro.optim.advisor import measure_fleet

    count = 600 if quick else 5_000
    best = {}
    reports = {}
    for _ in range(repeat):
        for exact in (False, True):
            key = "exact" if exact else "fast"
            elapsed, report = _fleetmix_run(count, exact)
            if key not in best or elapsed < best[key]:
                best[key], reports[key] = elapsed, report

    clear_caches()
    scenario = fluid.FluidScenario(config=_fleetmix_config(),
                                   rate_per_s=FLEETMIX_RATE_PER_S,
                                   label="2xspr+1xa100+1xhybrid")
    begin = time.perf_counter()
    fluid_report = fluid.solve_grid([scenario], mix=FLEETMIX_MIX)[0]
    fluid_s = time.perf_counter() - begin
    attainment, goodput, throughput, dollars = measure_fleet(
        _fleetmix_config(), FLEETMIX_RATE_PER_S, mix=FLEETMIX_MIX,
        count=count, seed=CLUSTER_SEED)

    def rel_err(fluid_value, sim_value):
        return abs(fluid_value - sim_value) / max(abs(sim_value), 1e-300)

    return {
        "requests": count,
        "rate_per_s": FLEETMIX_RATE_PER_S,
        "max_batch": CLUSTER_MAX_BATCH,
        "fleet": "2xspr+1xa100+1xhybrid(spr+a100)",
        "fast_s": best["fast"],
        "exact_s": best["exact"],
        "speedup": best["exact"] / best["fast"],
        "requests_per_s": count / best["fast"],
        "max_rel_err": _cluster_rel_err(reports["exact"], reports["fast"]),
        "counters_match": (reports["fast"].router_counters
                           == reports["exact"].router_counters),
        "fleet_usd": reports["fast"].fleet_price_usd,
        "fluid_s": fluid_s,
        "fluid_envelope": {
            "throughput": rel_err(fluid_report.throughput_tokens_per_s,
                                  throughput),
            "goodput": rel_err(fluid_report.goodput_tokens_per_s, goodput),
            "dollars_per_mtok": rel_err(fluid_report.dollars_per_mtok,
                                        dollars),
        },
        "fluid_attainment": fluid_report.attainment,
        "sim_attainment": attainment,
        "fluid_regime": fluid_report.regime,
    }


def _environment() -> dict:
    """Host facts that contextualize wall-clock numbers across PRs."""
    import subprocess

    revision = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        revision = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {"host_cpus": os.cpu_count(), "git_revision": revision}


def _print_cluster(cluster: dict) -> None:
    print(f"cluster ({cluster['requests']:,} requests, "
          f"{cluster['replicas']} replicas): "
          f"exact {cluster['exact_s']:.1f}s, "
          f"fast {cluster['fast_s']:.2f}s "
          f"({cluster['speedup']:.1f}x, "
          f"{cluster['requests_per_s']:,.0f} req/s), "
          f"max rel err {cluster['max_rel_err']:.2e}")


def _print_cluster_mixed(mixed: dict) -> None:
    print(f"mixed fleet ({mixed['requests']:,} requests, "
          f"{mixed['fleet']}): "
          f"exact {mixed['exact_s']:.1f}s, "
          f"fast {mixed['fast_s']:.2f}s "
          f"({mixed['speedup']:.1f}x, "
          f"{mixed['requests_per_s']:,.0f} req/s), "
          f"max rel err {mixed['max_rel_err']:.2e}")


def _print_cluster_sharded(sharded: dict) -> None:
    print(f"sharded ({sharded['requests']:,} requests, "
          f"{sharded['replicas']} replicas, "
          f"{sharded['workers']} workers): "
          f"single-process {sharded['single_process_s']:.1f}s, "
          f"sharded {sharded['sharded_s']:.1f}s "
          f"({sharded['speedup']:.1f}x, "
          f"{sharded['requests_per_s']:,.0f} req/s), "
          f"max rel err {sharded['max_rel_err']:.2e}")


def _print_fairness(fairness: dict) -> None:
    print(f"fairness ({fairness['requests']:,} requests, "
          f"{fairness['users']} users): "
          f"builtin {fairness['baseline_s']:.2f}s, "
          f"vtc {fairness['vtc_overhead']:.2f}x, "
          f"wsc {fairness['wsc_overhead']:.2f}x")


def _print_tiering(tiering: dict) -> None:
    print(f"tiering ({tiering['requests']:,} requests, "
          f"rate {tiering['rate_per_s']}/s): "
          f"exact {tiering['tiered_exact_s']:.1f}s, "
          f"fast {tiering['tiered_fast_s']:.2f}s "
          f"({tiering['speedup']:.1f}x), "
          f"max rel err {tiering['max_rel_err']:.2e}; "
          f"tiered {tiering['tiered_dollars_per_mtok']:.2f} $/Mtok "
          f"@ att {tiering['tiered_attainment']:.3f} vs "
          f"one-size {tiering['onesize_dollars_per_mtok']:.2f} "
          f"@ att {tiering['onesize_attainment']:.3f} "
          f"({tiering['dpm_ratio']:.2f}x)")


def _print_fluid(fluid: dict) -> None:
    stable = fluid["envelope"].get("stable", {})
    print(f"fluid ({fluid['points']} provisioning points, "
          f"{fluid['sim_requests']:,} sim requests/point): "
          f"sim {fluid['sim_s']:.1f}s, "
          f"fluid cold {fluid['fluid_cold_s'] * 1e3:.0f}ms "
          f"({fluid['speedup']:.0f}x), "
          f"warm {fluid['fluid_warm_s'] * 1e3:.1f}ms "
          f"({fluid['speedup_warm']:.0f}x); "
          f"stable envelope: throughput "
          f"{stable.get('throughput', 0.0):.1%}, "
          f"$/Mtok {stable.get('dollars_per_mtok', 0.0):.1%}; "
          f"overload flagged: {fluid['overload_flag_agrees']}")


def _print_fleetmix(fleetmix: dict) -> None:
    envelope = fleetmix["fluid_envelope"]
    print(f"fleetmix ({fleetmix['requests']:,} requests, "
          f"{fleetmix['fleet']}): "
          f"exact {fleetmix['exact_s']:.1f}s, "
          f"fast {fleetmix['fast_s']:.2f}s "
          f"({fleetmix['speedup']:.1f}x, "
          f"{fleetmix['requests_per_s']:,.0f} req/s), "
          f"max rel err {fleetmix['max_rel_err']:.2e}; "
          f"fluid {fleetmix['fluid_s'] * 1e3:.0f}ms, envelope: "
          f"throughput {envelope['throughput']:.1%}, "
          f"$/Mtok {envelope['dollars_per_mtok']:.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite",
                        choices=("sweep", "cluster", "fairness", "tiering",
                                 "fluid", "fleetmix"),
                        default="sweep",
                        help="benchmark suite to run (default: sweep)")
    parser.add_argument("--json", default=None,
                        help="output path for the JSON report (default: "
                             "BENCH_<suite>.json; the fairness suite "
                             "merges into BENCH_cluster.json)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions (best is reported)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny runs for smoke testing")
    args = parser.parse_args(argv)
    if args.json:
        destination = args.json
    elif args.suite in ("fairness", "tiering", "fluid", "fleetmix"):
        destination = "BENCH_cluster.json"
    else:
        destination = f"BENCH_{args.suite}.json"

    if args.suite in ("fairness", "tiering", "fluid", "fleetmix"):
        # Merge into the cluster report rather than replacing it: the
        # fairness/tiering/fluid figures extend the same
        # simulation-throughput record. Merged suites carry their own
        # environment stamp (the top-level one dates the cluster run).
        report = {}
        if os.path.exists(destination):
            with open(destination) as fh:
                report = json.load(fh)
        if args.suite == "fairness":
            report["fairness"] = bench_fairness(args.quick,
                                                min(args.repeat, 3))
        elif args.suite == "tiering":
            report["tiering"] = bench_tiering(args.quick,
                                              min(args.repeat, 3))
        elif args.suite == "fleetmix":
            report["fleetmix"] = bench_fleetmix(args.quick,
                                                min(args.repeat, 3))
        else:
            report["fluid"] = bench_fluid(args.quick, min(args.repeat, 3))
        report[args.suite]["environment"] = _environment()
    elif args.suite == "cluster":
        report = {
            "benchmark": "cluster event-horizon fast-forward",
            "quick": args.quick,
            "environment": _environment(),
            "cluster": bench_cluster(args.quick, min(args.repeat, 3)),
            "cluster_mixed": bench_cluster_mixed(args.quick,
                                                 min(args.repeat, 3)),
            "cluster_sharded": bench_cluster_sharded(args.quick,
                                                     min(args.repeat, 3)),
        }
    else:
        report = {
            "benchmark": "fig8-grid + decode-pricing microbenchmark",
            "quick": args.quick,
            "environment": _environment(),
            "fig8_sweep": bench_fig8_sweep(args.quick, args.repeat),
            "decode_micro": bench_decode_micro(args.quick, args.repeat),
        }
    with open(destination, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    if args.suite == "fairness":
        _print_fairness(report["fairness"])
    elif args.suite == "tiering":
        _print_tiering(report["tiering"])
    elif args.suite == "fluid":
        _print_fluid(report["fluid"])
    elif args.suite == "fleetmix":
        _print_fleetmix(report["fleetmix"])
    elif args.suite == "cluster":
        _print_cluster(report["cluster"])
        _print_cluster_mixed(report["cluster_mixed"])
        _print_cluster_sharded(report["cluster_sharded"])
    else:
        sweep = report["fig8_sweep"]
        micro = report["decode_micro"]
        print(f"fig-8 grid ({sweep['rows']} rows): "
              f"exact {sweep['exact_s']:.3f}s, "
              f"fast cold {sweep['fast_cold_s']:.3f}s "
              f"({sweep['speedup_cold']:.1f}x), "
              f"warm {sweep['fast_warm_s']:.3f}s "
              f"({sweep['speedup_warm']:.1f}x), "
              f"max rel err {sweep['max_rel_err']:.2e}")
        print(f"decode micro ({micro['decode_steps']} steps): "
              f"exact {micro['exact_s']*1e3:.2f}ms, "
              f"fast {micro['fast_s']*1e3:.2f}ms "
              f"({micro['speedup']:.1f}x), "
              f"max rel err {micro['max_rel_err']:.2e}")
    print(f"wrote {destination}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
