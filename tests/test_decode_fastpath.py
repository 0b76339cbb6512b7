"""Equivalence of the analytical decode pricing and the per-step loop.

The fast path (:meth:`OperatorExecutor.time_decode_range`) must agree with
the exact per-step decode loop to within 1e-9 relative error on every
reported metric — TTFT/TPOT/E2E, phase totals, and the per-op breakdown —
across models, batch sizes, dtypes, backends, platforms, and request
shapes, including a platform where the best engine flips mid-decode. The
per-step series (:meth:`OperatorExecutor.time_decode_series`) reads the
same closed-form walk and must match the step loop step by step.
"""

import dataclasses

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    ReplicaSpec,
    RoundRobinRouter,
)
from repro.engine import backend as backend_mod
from repro.engine import stepcost
from repro.engine.backend import BaselineBackend, parse_backend
from repro.engine.executor import OperatorExecutor
from repro.engine.inference import InferenceSimulator, MemoryCapacityError
from repro.engine.stepcost import DecodeCostTable, clear_decode_cost_tables
from repro.engine.request import InferenceRequest
from repro.experiments._sweeps import clear_caches
from repro.hardware.compute import ComputeEngine, EngineKind, TileShape
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.opgraph import decode_step_ops
from repro.models.registry import evaluated_models, get_model
from repro.serving.arrivals import poisson_arrivals
from repro.trace import NOOP_TRACER, RecordingTracer

TOL = 1e-9
#: Every per-step leg the series can fill, in OpTiming order.
LEGS = ("time_s", "compute_s", "memory_s")


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(got), abs(want), 1e-300)


def _assert_equivalent(sim, model, request):
    """Check fast == exact for one cell; returns False on capacity skip."""
    try:
        exact = sim.run(model, request, exact=True)
    except MemoryCapacityError:
        return False
    fast = sim.run(model, request, exact=False)

    for key, want in exact.summary().items():
        assert _rel(fast.summary()[key], want) <= TOL, key

    for phase_exact, phase_fast in ((exact.prefill, fast.prefill),
                                    (exact.decode, fast.decode)):
        for field in ("time_s", "flops", "weight_bytes", "activation_bytes",
                      "kv_bytes", "compute_busy_s", "memory_busy_s"):
            assert _rel(getattr(phase_fast, field),
                        getattr(phase_exact, field)) <= TOL, field
        assert set(phase_fast.op_times) == set(phase_exact.op_times)
        for name, want in phase_exact.op_times.items():
            assert _rel(phase_fast.op_times[name], want) <= TOL, name
    return True


def _assert_series_matches_steps(executor, model, batch_size, kv_start,
                                 kv_end):
    """Series == per-step pricing at every kv, and sums to the range."""
    series = executor.time_decode_series(model, batch_size, kv_start, kv_end,
                                         LEGS)
    assert [len(legs) for legs in series] == [kv_end - kv_start] * 3
    for i, kv in enumerate(range(kv_start, kv_end)):
        want = executor.decode_step(model, batch_size, kv)
        for leg, got in enumerate(legs[i] for legs in series):
            assert _rel(got, want[leg]) <= TOL, (kv, leg)
    rng = executor.time_decode_range(model, batch_size, kv_start, kv_end)
    for legs, want in zip(series, (rng.time_s, rng.compute_s, rng.memory_s)):
        assert _rel(sum(legs), want) <= TOL


@pytest.mark.parametrize("platform_name", ["icl", "spr", "a100", "h100"])
@pytest.mark.parametrize("batch_size", [1, 4, 32])
def test_fastpath_matches_step_loop_across_models(platform_name, batch_size):
    sim = InferenceSimulator(get_platform(platform_name))
    checked = [model.name for model in evaluated_models()
               if _assert_equivalent(sim, model,
                                     InferenceRequest(batch_size=batch_size))]
    assert checked, "every model hit the capacity skip"


@pytest.mark.parametrize("dtype", [DType.BF16, DType.FP32, DType.INT8])
@pytest.mark.parametrize("platform_name", ["icl", "spr"])
def test_fastpath_matches_step_loop_across_dtypes(platform_name, dtype):
    sim = InferenceSimulator(get_platform(platform_name))
    for model in (get_model("opt-1.3b"), get_model("llama2-7b")):
        assert _assert_equivalent(
            sim, model,
            InferenceRequest(batch_size=4, input_len=96, output_len=48,
                             dtype=dtype))


@pytest.mark.parametrize("spec", ["int8", "w4", "w8a8", "tp2", "int8-tp2",
                                  "numa:snc_flat,aware"])
def test_fastpath_matches_step_loop_across_backends(spec):
    # TP charges decode_comm_s on every step; the closed form must too.
    sim = InferenceSimulator(get_platform("spr"), backend=parse_backend(spec))
    for model in (get_model("opt-1.3b"), get_model("llama2-7b")):
        assert _assert_equivalent(
            sim, model,
            InferenceRequest(batch_size=4, input_len=96, output_len=48))
        if spec in ("tp2", "int8-tp2"):
            # TP's sharded attention score GEMM is not affine in kv_len:
            # the series prices it step by step, on ops synthesized per
            # residue class of kv_len.
            _assert_series_matches_steps(sim.replica_executor(model, 4),
                                         model, 4, 96, 143)


@pytest.mark.parametrize("input_len,output_len", [
    (1, 2),       # minimal kv range
    (17, 5),      # dense-summation path (few steps)
    (128, 1),     # no decode steps at all
    (128, 300),   # long decode crossing many tile boundaries
    (333, 77),    # tile-misaligned start
])
def test_fastpath_matches_step_loop_shapes(input_len, output_len):
    sim = InferenceSimulator(get_platform("spr"))
    model = get_model("opt-6.7b")
    assert _assert_equivalent(
        sim, model,
        InferenceRequest(batch_size=2, input_len=input_len,
                         output_len=output_len))


def _flip_platform():
    """A platform whose best engine flips mid-decode.

    On the paper's real platforms the decode-phase GEMMs never change
    winner (attention stays memory-bound), so this exercises the
    best-engine crossover breakpoints with a synthetic engine pair: a
    low-overhead vector unit that wins while the op is memory-bound, and
    a high-peak, high-overhead matrix engine that wins once the growing
    kv_len makes the first engine compute-bound.
    """
    cheap = ComputeEngine(name="cheap", kind=EngineKind.VECTOR,
                          peak_flops={DType.BF16: 2e12},
                          launch_overhead_s=1e-7)
    beefy = ComputeEngine(name="beefy", kind=EngineKind.MATRIX,
                          peak_flops={DType.BF16: 2e14},
                          tile=TileShape(m=16, n=16, k=32),
                          launch_overhead_s=2e-5)
    return dataclasses.replace(get_platform("spr"), name="synthetic-flip",
                               engines=[cheap, beefy])


def test_best_engine_flips_mid_decode_and_fastpath_agrees():
    model = get_model("opt-1.3b")
    executor = OperatorExecutor(_flip_platform(), BaselineBackend(),
                                bandwidth=5e11)
    kv_start, kv_end = 760, 1060

    # Precondition: the winning engine really does flip inside the range
    # (otherwise this test silently stops covering the crossover logic).
    winners = set()
    for kv in range(kv_start, kv_end):
        for op in decode_step_ops(model, 1, kv, DType.BF16):
            if op.name == "attn_qk":
                winners.add(executor.time_op(op).engine_name)
    assert winners == {"cheap", "beefy"}

    rng = executor.time_decode_range(model, 1, kv_start, kv_end)

    time_s = compute_s = memory_s = 0.0
    op_times = {}
    for kv in range(kv_start, kv_end):
        for timing in executor.time_ops(
                list(decode_step_ops(model, 1, kv, DType.BF16))):
            time_s += timing.time_s
            compute_s += timing.compute_s
            memory_s += timing.memory_s
            op_times[timing.op.name] = (op_times.get(timing.op.name, 0.0)
                                        + timing.time_s)

    assert _rel(rng.time_s, time_s) <= TOL
    assert _rel(rng.compute_s, compute_s) <= TOL
    assert _rel(rng.memory_s, memory_s) <= TOL
    assert set(rng.op_times) == set(op_times)
    for name, want in op_times.items():
        assert _rel(rng.op_times[name], want) <= TOL, name
    _assert_series_matches_steps(executor, model, 1, kv_start, kv_end)


def _spr_executor(spec):
    return OperatorExecutor(get_platform("spr"), parse_backend(spec),
                            bandwidth=2e11)


def _loop_series(executor, model, batch_size, kv_start, kv_end):
    """Reference fill of the decode walk, one Python float at a time."""
    steps = kv_end - kv_start
    out = [[0.0] * steps for _ in range(3)]
    for _, _, runs, _ in executor._decode_walk(model, batch_size, kv_start,
                                               kv_end):
        for lo, hi, t0, t1 in runs:
            for leg, (v0, v1) in enumerate(zip(
                    (t0.time_s, t0.compute_s, t0.memory_s),
                    (t1.time_s, t1.compute_s, t1.memory_s))):
                if t0 is t1:
                    for idx in range(lo - kv_start, hi - kv_start):
                        out[leg][idx] += v0
                    continue
                delta = (v1 - v0) / (hi - 1 - lo)
                for i in range(hi - lo):
                    out[leg][lo - kv_start + i] += v0 + delta * i
    comm = executor.backend.decode_comm_s(model, batch_size)
    if comm:
        out[0] = [t + comm for t in out[0]]
    return tuple(out)


@pytest.mark.parametrize("spec", ["bf16", "int8", "int8-tp2"])
def test_series_fill_is_bit_identical_to_loop(spec):
    # The list fill does the loop's arithmetic, element by element and
    # op by op in graph order, so the two agree exactly — for every leg
    # and for the time leg the default fills alone.
    executor = _spr_executor(spec)
    model = get_model("llama2-7b")
    for kv_start, kv_end in ((1, 2), (17, 22), (128, 639), (333, 410)):
        want = _loop_series(executor, model, 4, kv_start, kv_end)
        assert executor.time_decode_series(model, 4, kv_start,
                                           kv_end, LEGS) == want
        assert executor.time_decode_series(model, 4, kv_start,
                                           kv_end) == want[:1]
    flip = OperatorExecutor(_flip_platform(), BaselineBackend(),
                            bandwidth=5e11)
    model = get_model("opt-1.3b")
    assert (flip.time_decode_series(model, 1, 760, 1060, LEGS)
            == _loop_series(flip, model, 1, 760, 1060))


def test_time_decode_range_empty_range():
    executor = OperatorExecutor(get_platform("spr"), BaselineBackend(),
                                bandwidth=2e11)
    rng = executor.time_decode_range(get_model("opt-1.3b"), 1, 128, 128)
    assert rng.steps == 0
    assert rng.time_s == 0.0
    assert rng.op_times == {}


@pytest.mark.parametrize("spec", ["tp2", "int8-tp2", "int4-tp2", "tp3"])
def test_residue_synthesized_ops_equal_builder_ops(spec):
    # Every exactly priced step of a non-affine op runs on an op equal
    # to the builder's own, whether synthesized per residue class (long
    # ranges, odd and even starts) or rebuilt per step (short ranges;
    # and tp3, whose byte counts over 3 would not step exactly).
    executor = _spr_executor(spec)
    backend = executor.backend
    ranges = [(1, 40), (2, 37), (3, 67), (96, 143), (333, 410),
              (1000, 1129), (1, 8), (6, 13)]
    for name in ("opt-1.3b", "llama2-7b", "llama2-13b", "opt-66b"):
        model = get_model(name)
        for batch in (1, 4, 8):
            for kv_start, kv_end in ranges:
                dense = [(index, runs) for index, (_, _, runs, is_dense)
                         in enumerate(executor._decode_walk(
                             model, batch, kv_start, kv_end)) if is_dense]
                assert [backend.decode_ops(model, batch, kv_start)[i].name
                        for i, _ in dense] == ["attn_qk"]
                index, runs = dense[0]
                assert [run[0] for run in runs] == list(range(kv_start,
                                                              kv_end))
                for kv, _, timing, _ in runs:
                    assert timing.op == backend.decode_ops(
                        model, batch, kv)[index], (name, batch, kv)

                def builder_op_at(kv):
                    return backend.decode_ops(model, batch, kv)[index]
                synth = executor._residue_op_factory(builder_op_at,
                                                     kv_start, kv_end)
                if spec != "tp3":
                    assert (synth is None) == (kv_end - kv_start < 8)


def test_tp_series_builds_few_graphs():
    # A cold 511-step series builds O(period) graphs for the sharded
    # score GEMM, not one per step (the per-step rebuild missed the
    # graph cache about twice per step: the TP graph and its inner).
    executor = _spr_executor("int8-tp2")
    model = get_model("opt-6.7b")
    clear_caches()
    executor.time_decode_series(model, 4, 128, 639)
    assert backend_mod._cached_decode_ops.cache_info().misses <= 32


@pytest.mark.parametrize("spec,batch", [("bf16", 1), ("bf16", 3),
                                        ("int8", 8), ("int8-tp2", 5)])
def test_cost_curve_steps_difference_the_prefix(spec, batch):
    # step_t holds each step's cost as the same subtraction of adjacent
    # prefix entries, across every extension chunk; the packed leg
    # curves hold the same running sums a list would, whether they are
    # first read after the last extension, after the third, or between
    # every pair (*read_after* names the extensions followed by a read).
    executor = _spr_executor(spec)
    model = get_model("opt-1.3b")
    for read_after in ((), (2,), (0, 1, 2)):
        table = DecodeCostTable(executor, model)
        curve = table.curve(batch)
        chunks = []
        for index, kv_end in enumerate((2, 300, 700, 1500)):
            have = len(curve.prefix_t)
            curve.ensure(kv_end)
            chunks.append((have, len(curve.prefix_t)))
            if index in read_after:
                assert len(curve.prefix_c) == len(curve.prefix_m) == \
                    len(curve.prefix_t)
        assert all(lo < hi for lo, hi in chunks)
        pt, st = curve.prefix_t, curve.step_t
        assert len(st) == len(pt) == chunks[-1][1]
        for kv in range(1, len(pt)):
            assert st[kv] == pt[kv] - pt[kv - 1], kv
        want = [[0.0], [0.0], [0.0]]
        for lo, hi in chunks:
            for leg, values in zip(want, executor.time_decode_series(
                    model, batch, lo, hi, LEGS)):
                for value in values:
                    leg.append(leg[-1] + value)
        assert pt == want[0]
        assert list(curve.prefix_c) == want[1], read_after
        assert list(curve.prefix_m) == want[2], read_after
        assert table.step_time(batch, 600) == st[600]
        assert table.step_split(batch, 600) == (
            want[1][600] - want[1][599], want[2][600] - want[2][599])


def test_untraced_cluster_run_builds_no_attribution_legs():
    # Only a recording tracer reads the compute/memory legs, so an
    # untraced fleet prices the time curve alone; a traced one builds
    # every leg over the range it priced.
    def run(tracer):
        clear_decode_cost_tables()
        config = ClusterConfig([
            ReplicaSpec(get_platform("spr"), get_model("opt-1.3b"), count=2,
                        max_batch=4),
            ReplicaSpec(get_platform("icl"), get_model("opt-1.3b"),
                        max_batch=4, backend=parse_backend("int8"))])
        ClusterSimulator(config.build_fleet(), RoundRobinRouter(),
                         tracer=tracer).run(poisson_arrivals(4.0, 24, seed=2))
        return [curve for table in stepcost._TABLES.values()
                for curve in table._curves.values()]

    curves = run(NOOP_TRACER)
    assert curves and all(len(curve.prefix_t) > 1 for curve in curves)
    assert all(len(curve._prefix_c) == len(curve._prefix_m) == 1
               for curve in curves)
    curves = run(RecordingTracer())
    assert all(len(curve._prefix_c) == len(curve._prefix_m)
               == len(curve.prefix_t) for curve in curves)
    clear_decode_cost_tables()


def _brute_expected_decode(curve, input_range, output_range):
    pt = curve.prefix_t
    costs = [pt[lin + lout - 1] - pt[lin]
             for lin in range(input_range[0], input_range[1] + 1)
             for lout in range(output_range[0], output_range[1] + 1)]
    return sum(costs) / len(costs)


@pytest.mark.parametrize("spec", ["bf16", "int8-tp2"])
def test_expected_decode_time_matches_brute_force(spec):
    # The closed-form convolution equals the mean over every (Lin, Lout)
    # pair: wider input than output, wider output than input, equal
    # widths, and width-1 ranges on either side.
    table = DecodeCostTable(_spr_executor(spec), get_model("llama2-7b"))
    for batch in (1, 6):
        for input_range, output_range in (
                ((16, 200), (8, 40)), ((30, 45), (1, 300)),
                ((64, 127), (200, 263)), ((100, 100), (1, 50)),
                ((1, 90), (33, 33)), ((7, 7), (9, 9))):
            got = table.expected_decode_time(batch, input_range,
                                             output_range)
            want = _brute_expected_decode(table.curve(batch), input_range,
                                          output_range)
            assert _rel(got, want) <= 1e-12, (batch, input_range,
                                              output_range)
