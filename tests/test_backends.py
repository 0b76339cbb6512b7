"""Unified ExecutionBackend layer: parity, keying, and composition.

The backend layer promises three things, each pinned here:

1. **cost-table keying** — decode cost tables are keyed by the
   executor's pricing signature (which includes the backend signature),
   so an INT8 fleet warming its tables never perturbs a BF16 fleet's
   numbers, bit for bit;
2. **single-path parity** — the remaining feature models
   (:class:`SpeculativeDecoder`, :class:`PrefixCacheModel`) agree with
   their backend pushed through the generic :class:`InferenceSimulator`,
   and a serving replica's executor prices a backend exactly like the
   single-request :class:`InferenceSimulator` path (≤1e-9);
3. **cluster composition** — event-horizon fast-forward stays exact
   (integers bit-equal, timings ≤1e-9) for quantized, tensor-parallel,
   and *mixed* fleets, where each replica prices through its own
   backend-keyed table.
"""

import dataclasses
import math

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    JoinShortestQueueRouter,
    ReplicaSpec,
    RoundRobinRouter,
)
from repro.engine.backend import (
    BaselineBackend,
    NumaBackend,
    PrefixCacheBackend,
    QuantizedBackend,
    SpecDecodeBackend,
    TensorParallelBackend,
    TPConfig,
    parse_backend,
)
from repro.engine.executor import OperatorExecutor
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.engine.stepcost import decode_cost_table
from repro.experiments._sweeps import clear_caches
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.modes import SNC_FLAT
from repro.quant.weightonly import QuantConfig, QuantScheme
from repro.serving.arrivals import poisson_arrivals
from repro.serving.prefix_cache import PrefixCacheModel
from repro.specdecode.model import SpecDecodeConfig, SpeculativeDecoder
from repro.workloads.generator import WorkloadSpec

SPR = get_platform("spr")
ICL = get_platform("icl")
LLAMA = get_model("llama2-7b")
OPT = get_model("opt-1.3b")

REL = 1e-9


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def decode_heavy_spec():
    return WorkloadSpec(name="agentic", input_len_range=(16, 64),
                        output_len_range=(96, 192), batch_size=1,
                        priority_metric="tpot_s")


# -- cost-table keying ------------------------------------------------------


class TestCostTableKeying:
    def _executor(self, backend):
        sim = InferenceSimulator(SPR, backend=backend)
        return sim._executor(OPT, InferenceRequest(batch_size=2))

    def test_signatures_distinguish_backends(self):
        bf16 = self._executor(BaselineBackend())
        int8 = self._executor(QuantizedBackend())
        assert bf16.pricing_signature != int8.pricing_signature

    def test_distinct_tables_per_backend(self):
        clear_caches()
        bf16 = decode_cost_table(self._executor(BaselineBackend()), OPT)
        int8 = decode_cost_table(self._executor(QuantizedBackend()), OPT)
        assert bf16 is not int8
        # INT8 halves the decode weight stream; identical costs would
        # mean both backends landed on one table.
        assert bf16.range_cost(2, 1, 65)[0] > int8.range_cost(2, 1, 65)[0]

    def test_warming_int8_does_not_perturb_bf16(self):
        clear_caches()
        bf16_executor = self._executor(BaselineBackend())
        table = decode_cost_table(bf16_executor, OPT)
        probes = [(1, 128), (2, 64), (4, 200)]
        before = [table.step_time(*p) for p in probes]
        before_range = table.range_cost(2, 1, 129)
        before_prefill = table.prefill_time(2, 128)

        int8_executor = self._executor(QuantizedBackend())
        int8_table = decode_cost_table(int8_executor, OPT)
        for probe in probes:
            int8_table.step_time(*probe)
        int8_table.range_cost(2, 1, 129)
        int8_table.prefill_time(2, 128)

        again = decode_cost_table(bf16_executor, OPT)
        assert again is table
        assert [table.step_time(*p) for p in probes] == before
        assert table.range_cost(2, 1, 129) == before_range
        assert table.prefill_time(2, 128) == before_prefill

    def test_clear_caches_resets_registry(self):
        executor = self._executor(BaselineBackend())
        table = decode_cost_table(executor, OPT)
        clear_caches()
        assert decode_cost_table(executor, OPT) is not table

    def test_equal_backends_share_one_table(self):
        clear_caches()
        a = decode_cost_table(self._executor(QuantizedBackend()), OPT)
        b = decode_cost_table(self._executor(QuantizedBackend()), OPT)
        assert a is b


# -- backend spec parsing ---------------------------------------------------


class TestParseBackend:
    def test_bf16_is_baseline(self):
        backend = parse_backend("bf16")
        assert isinstance(backend, BaselineBackend)
        assert backend.dtype is DType.BF16
        assert backend.label == "bf16"

    def test_int8_is_weight_only_quant(self):
        backend = parse_backend("int8")
        assert isinstance(backend, QuantizedBackend)
        assert backend.quant.scheme is QuantScheme.WEIGHT_ONLY_INT8
        assert backend.label == "int8"

    def test_tp_wraps_base(self):
        backend = parse_backend("int8-tp2")
        assert isinstance(backend, TensorParallelBackend)
        assert backend.tp.degree == 2
        assert isinstance(backend.inner, QuantizedBackend)
        assert backend.label == "int8-tp2"

    def test_plus_separator_and_order_both_accepted(self):
        assert parse_backend("tp2+int8").signature == \
            parse_backend("int8-tp2").signature

    def test_bare_tp_defaults_to_bf16_inner(self):
        backend = parse_backend("tp2")
        assert backend.label == "bf16-tp2"

    @pytest.mark.parametrize("bad", ["", "foo", "int8-int4", "tp2-tp4",
                                     "tp0", "bf16-avx"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_backend(bad)

    def test_parsed_specs_are_priceable(self):
        request = InferenceRequest(batch_size=1, input_len=64, output_len=8)
        for spec in ("bf16", "fp32", "int8", "int4", "w8a8", "tp2",
                     "int4-tp2"):
            result = InferenceSimulator(
                SPR, backend=parse_backend(spec)).run(OPT, request)
            assert result.e2e_s > 0


# -- feature models vs backend-through-generic-paths ------------------------


class TestWrapperParity:
    REQUEST = InferenceRequest(batch_size=2, input_len=128, output_len=64)

    def test_specdecode_folded_graph_matches_estimate(self):
        # ICL: effective bandwidth is footprint-independent, so the
        # wrapper's separate draft/target executors and the folded
        # graph's single executor price against the same bandwidth.
        config = SpecDecodeConfig(gamma=4, acceptance_rate=0.8)
        decoder = SpeculativeDecoder(ICL, LLAMA, OPT, config)
        estimate = decoder.estimate(self.REQUEST)

        backend = decoder.backend(self.REQUEST)
        sim = InferenceSimulator(ICL, backend=backend)
        executor = sim._executor(LLAMA, self.REQUEST)
        kv_len = self.REQUEST.input_len + self.REQUEST.decode_steps // 2
        folded = sum(t.time_s for t in executor.time_ops(
            backend.decode_ops(LLAMA, self.REQUEST.batch_size, kv_len)))
        assert close(folded, estimate.effective_tpot_s)

    def test_prefix_wrapper_matches_backend(self):
        prefix_len, unique_len = 512, 64
        estimate = PrefixCacheModel(SPR).estimate(LLAMA, prefix_len,
                                                  unique_len)
        request = InferenceRequest(batch_size=1,
                                   input_len=prefix_len + unique_len)
        backend = PrefixCacheBackend(prefix_len=prefix_len)
        warm = InferenceSimulator(SPR, backend=backend).run(LLAMA, request)
        cold = InferenceSimulator(SPR).run(LLAMA, request)
        assert warm.ttft_s == estimate.warm_ttft_s
        assert cold.ttft_s == estimate.cold_ttft_s


# -- wrappers: the base backend owns the dtype -------------------------------

#: LLaMA2-7B at batch 2, 256 in / 16 out on SPR, as float hex:
#: (prefill.time_s, decode.time_s) of each backend's run, plus the
#: speculative verification pass at the mid-generation kv length 264.
#: Recorded when prefix caching and speculative decoding were base
#: backends with a ``dtype`` field of their own, so they hold the
#: wrappers over BF16 to that pricing.
WRAPPER_PINS = {
    "prefix": ("0x1.28fbc9baa58c1p-5", "0x1.042f311447b89p-1"),
    "spec": ("0x1.cdf04b91783b3p-5", "0x1.254327bb4346cp-2",
             "0x1.11d68bc93413ep-5"),
    "int8-numa:snc_flat,aware-tp2": ("0x1.3fd06d439396ap-5",
                                     "0x1.41b325df4172ap-3"),
}

PIN_REL_TOL = 1e-9


class TestWrappers:
    REQUEST = InferenceRequest(batch_size=2, input_len=256, output_len=16)

    @staticmethod
    def _backend(name):
        if name == "prefix":
            return PrefixCacheBackend(prefix_len=192)
        if name == "spec":
            return SpecDecodeBackend(
                draft=OPT, spec=SpecDecodeConfig(gamma=4,
                                                 acceptance_rate=0.8))
        return parse_backend(name)

    @pytest.mark.parametrize("name", sorted(WRAPPER_PINS))
    def test_prices_match_pin(self, name):
        backend = self._backend(name)
        simulator = InferenceSimulator(SPR, backend)
        result = simulator.run(LLAMA, self.REQUEST)
        got = [result.prefill.time_s, result.decode.time_s]
        if name == "spec":
            executor = simulator._executor(LLAMA, self.REQUEST)
            got.append(sum(t.time_s for t in executor.time_ops(
                backend.verify_ops(LLAMA, 2, 264))))
        want = [float.fromhex(v) for v in WRAPPER_PINS[name]]
        assert got == pytest.approx(want, rel=PIN_REL_TOL, abs=0.0)

    @pytest.mark.parametrize("wrap", [
        lambda **kw: NumaBackend(numa=SNC_FLAT, **kw),
        lambda **kw: TensorParallelBackend(**kw),
        lambda **kw: PrefixCacheBackend(prefix_len=64, **kw),
        lambda **kw: SpecDecodeBackend(draft=OPT, **kw),
    ], ids=["numa", "tp", "prefix", "spec"])
    def test_default_inner_is_the_plain_base(self, wrap):
        implicit, explicit = wrap(), wrap(inner=BaselineBackend())
        assert implicit == explicit
        assert hash(implicit) == hash(explicit)
        assert implicit.signature == explicit.signature

    @pytest.mark.parametrize("wrap", [
        lambda inner: NumaBackend(numa=SNC_FLAT, inner=inner),
        lambda inner: TensorParallelBackend(inner=inner),
        lambda inner: PrefixCacheBackend(prefix_len=64, inner=inner),
        lambda inner: SpecDecodeBackend(draft=OPT, inner=inner),
    ], ids=["numa", "tp", "prefix", "spec"])
    def test_dtype_is_the_bases_alone(self, wrap):
        wrapper = wrap(BaselineBackend(DType.FP32))
        assert wrapper.dtype is DType.FP32
        assert wrapper.compute_dtype is DType.FP32
        assert "dtype" not in {f.name for f in dataclasses.fields(wrapper)}
        with pytest.raises(AttributeError):
            wrapper.dtype = DType.BF16

    def test_prefix_over_quantized_takes_the_bases_weights(self):
        base = QuantizedBackend(QuantConfig(scheme=QuantScheme.FULL_INT8))
        backend = PrefixCacheBackend(prefix_len=192, inner=base)
        assert backend.compute_dtype is DType.INT8
        assert backend.dtype is base.dtype
        assert backend.weight_bytes(LLAMA) == base.weight_bytes(LLAMA)
        assert backend.footprint_bytes(LLAMA, self.REQUEST) == \
            base.footprint_bytes(LLAMA, self.REQUEST)
        # The unique suffix runs the base's (quantized) prefill graph.
        suffix = base.prefill_ops(LLAMA, 2, 64)
        assert backend.prefill_ops(LLAMA, 2, 256)[:len(suffix)] == suffix
        assert backend.decode_ops(LLAMA, 2, 300) == \
            base.decode_ops(LLAMA, 2, 300)

    def test_prefix_kv_read_is_at_the_bases_kv_storage(self):
        # 32 layers x K,V x 4096 x 512 tokens at one byte (INT8 KV).
        base = QuantizedBackend(QuantConfig(kv_dtype=DType.INT8))
        backend = PrefixCacheBackend(prefix_len=512, inner=base)
        read = backend.prefill_ops(LLAMA, 1, 576)[-1]
        assert read.name == "prefix_kv_read"
        assert read.kv_read_bytes == 134_217_728

    def test_spec_over_quantized_takes_the_bases_weights(self):
        base = QuantizedBackend(QuantConfig(scheme=QuantScheme.FULL_INT8))
        backend = SpecDecodeBackend(draft=OPT, inner=base)
        assert backend.compute_dtype is DType.INT8
        assert backend.dtype is base.dtype
        assert backend.weight_bytes(LLAMA) == \
            base.weight_bytes(LLAMA) + base.weight_bytes(OPT)
        assert backend.footprint_bytes(LLAMA, self.REQUEST) == \
            base.footprint_bytes(LLAMA, self.REQUEST) + base.weight_bytes(OPT)
        assert backend.prefill_ops(LLAMA, 2, 256) == \
            base.prefill_ops(LLAMA, 2, 256)
        verify = backend.verify_ops(LLAMA, 2, 300)
        assert verify[:-1] == base.prefill_ops(LLAMA, 2,
                                               backend.spec.gamma + 1)
        # Speculating over INT8 streams fewer weight bytes per token.
        plain = SpecDecodeBackend(draft=OPT)
        streamed = lambda b: sum(op.weight_bytes
                                 for op in b.decode_ops(LLAMA, 2, 300))
        assert streamed(backend) < streamed(plain)


# Every backend spec parse_backend builds from the base dtypes and
# quantization schemes, bare and under each wrapper.
_BASE_SPECS = ("bf16", "fp16", "fp32", "int8", "int4", "w8a8")
_WRAP_SPECS = ("", "-numa:snc_flat,aware", "-hybrid:a100", "-tp2",
               "-numa:snc_flat-hybrid:a100-tp2")
ADJUSTING_SPECS = sorted(base + wrap for base in _BASE_SPECS
                         for wrap in _WRAP_SPECS
                         if parse_backend(base + wrap).adjusts)


class TestAdjustTimingContract:
    """``adjust_timing`` may only touch ``compute_s`` and ``time_s``.

    The closed-form decode walk relies on it: the memory leg, overhead,
    engine and efficiency of the winning candidate must survive the
    adjustment, and ``time_s`` must stay the roofline of the new legs.
    ``memory_bound`` must name the dominant leg after the adjustment,
    since bottleneck attribution reads it.
    """

    BANDWIDTH = 3.0e11

    def test_every_weight_only_scheme_adjusts_under_every_wrapper(self):
        assert ADJUSTING_SPECS == sorted(base + wrap
                                         for base in ("int4", "int8")
                                         for wrap in _WRAP_SPECS)

    @pytest.mark.parametrize("spec", ADJUSTING_SPECS)
    def test_adjustment_touches_only_the_compute_leg(self, spec):
        backend = parse_backend(spec)
        raw = OperatorExecutor(SPR, BaselineBackend(backend.compute_dtype),
                               bandwidth=self.BANDWIDTH)
        priced = OperatorExecutor(SPR, backend, bandwidth=self.BANDWIDTH)
        # Decode batches 10 (int4) and 28 (int8) sit where the inflated
        # compute leg overtakes the memory leg of the weight GEMMs.
        ops = (backend.prefill_ops(LLAMA, 2, 256)
               + backend.decode_ops(LLAMA, 2, 300)
               + backend.decode_ops(LLAMA, 10, 300)
               + backend.decode_ops(LLAMA, 28, 300))
        changed = 0
        for op in ops:
            before = raw.time_op(op)
            after = backend.adjust_timing(before)
            assert after.op is before.op
            assert after.memory_s == before.memory_s
            assert after.overhead_s == before.overhead_s
            assert after.engine_name == before.engine_name
            assert after.efficiency == before.efficiency
            assert after.compute_s >= before.compute_s
            assert after.time_s == \
                max(after.compute_s, after.memory_s) + after.overhead_s
            assert after.memory_bound == (after.memory_s >= after.compute_s)
            # The executor applies the same adjustment to the same winner.
            assert priced.time_op(op) == after
            changed += after != before
        assert changed > 0


class TestSchedulerParity:
    """Backend-through-a-serving-replica vs the single-request path.

    On ICL effective bandwidth is footprint-independent, so the
    replica's sizing executor and the request executor of
    :class:`InferenceSimulator` are interchangeable and the comparison
    isolates the op-graph path.
    """

    def test_quant_scheduler_costs_match_wrapper_executor(self):
        backend = QuantizedBackend(quant=QuantConfig())
        replica = InferenceSimulator(ICL, backend=backend).replica_executor(
            OPT, 4)
        request = InferenceRequest(batch_size=4, input_len=128,
                                   output_len=64)
        executor = InferenceSimulator(ICL, backend=backend)._executor(
            OPT, request)
        for batch, kv in ((1, 1), (2, 64), (4, 300)):
            want = sum(t.time_s for t in executor.time_ops(
                backend.decode_ops(OPT, batch, kv)))
            assert close(replica.decode_step(OPT, batch, kv)[0], want)
        want_prefill = sum(t.time_s for t in executor.time_ops(
            backend.prefill_ops(OPT, 2, 128)))
        assert close(replica.prefill_pass(OPT, 2, 128)[0], want_prefill)

    def test_tp_scheduler_prefill_matches_wrapper_ttft(self):
        backend = TensorParallelBackend(tp=TPConfig(degree=2))
        replica = InferenceSimulator(ICL, backend=backend).replica_executor(
            OPT, 4)
        request = InferenceRequest(batch_size=4, input_len=128,
                                   output_len=8)
        single = InferenceSimulator(ICL, backend=backend).run(OPT, request)
        assert close(replica.prefill_pass(OPT, 4, 128)[0], single.ttft_s)


# -- cluster composition ----------------------------------------------------


def assert_cluster_reports_agree(exact, fast):
    """Integer accounting bit-equal, timings ≤1e-9 relative."""
    assert exact.generated_tokens == fast.generated_tokens
    assert exact.wasted_tokens == fast.wasted_tokens
    assert close(exact.makespan_s, fast.makespan_s)
    assert close(exact.throughput, fast.throughput)
    assert close(exact.mean_ttft_s, fast.mean_ttft_s)
    assert len(exact.node_stats) == len(fast.node_stats)
    for e, f in zip(exact.node_stats, fast.node_stats):
        assert (e.name, e.platform, e.iterations, e.completed,
                e.generated_tokens, e.peak_queue) == \
               (f.name, f.platform, f.iterations, f.completed,
                f.generated_tokens, f.peak_queue)
        assert close(e.busy_s, f.busy_s)
    by_id = lambda report: sorted(report.completed,
                                  key=lambda r: r.request_id)
    for e, f in zip(by_id(exact), by_id(fast)):
        assert e.request_id == f.request_id
        assert close(e.start_s, f.start_s)
        assert close(e.first_token_s, f.first_token_s)
        assert close(e.finish_s, f.finish_s)


def run_both_modes(config, arrivals, make_router):
    exact = ClusterSimulator(config.build_fleet(), make_router(),
                             exact=True).run(list(arrivals))
    fast = ClusterSimulator(config.build_fleet(), make_router(),
                            exact=False).run(list(arrivals))
    return exact, fast


class TestClusterBackendParity:
    def test_quantized_tp_fleet_fast_forward_is_exact(self):
        config = ClusterConfig([
            ReplicaSpec(SPR, OPT, count=3, max_batch=4,
                        backend=parse_backend("int8-tp2")),
        ])
        arrivals = poisson_arrivals(2.0, 32, decode_heavy_spec(), seed=11)
        exact, fast = run_both_modes(config, arrivals, RoundRobinRouter)
        assert_cluster_reports_agree(exact, fast)

    def test_mixed_fleet_fast_forward_is_exact(self):
        config = ClusterConfig([
            ReplicaSpec(SPR, OPT, count=2, max_batch=4),
            ReplicaSpec(SPR, OPT, count=2, max_batch=4,
                        backend=parse_backend("int8-tp2")),
        ])
        arrivals = poisson_arrivals(3.0, 40, decode_heavy_spec(), seed=5)
        exact, fast = run_both_modes(config, arrivals,
                                     JoinShortestQueueRouter)
        assert_cluster_reports_agree(exact, fast)

    def test_mixed_fleet_routes_more_work_to_faster_backends(self):
        config = ClusterConfig([
            ReplicaSpec(SPR, LLAMA, count=2),
            ReplicaSpec(SPR, LLAMA, count=2,
                        backend=parse_backend("int8-tp2")),
        ])
        arrivals = poisson_arrivals(4.0, 48, decode_heavy_spec(), seed=3)
        report = ClusterSimulator(config.build_fleet(),
                                  JoinShortestQueueRouter()).run(arrivals)
        plain = sum(s.completed for s in report.node_stats
                    if "int8" not in s.name)
        quantized = sum(s.completed for s in report.node_stats
                        if "int8" in s.name)
        assert quantized > plain


class TestClusterConfig:
    def test_fleet_names_are_unique_and_labeled(self):
        config = ClusterConfig([
            ReplicaSpec(SPR, OPT, count=2),
            ReplicaSpec(SPR, OPT, count=2,
                        backend=parse_backend("int8-tp2")),
        ])
        names = [node.name for node in config.build_fleet()]
        assert names == ["spr-0", "spr-1",
                         "spr-int8-tp2-2", "spr-int8-tp2-3"]

    def test_size_counts_all_replicas(self):
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=2),
                                ReplicaSpec(ICL, OPT, count=3)])
        assert config.size == 5

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig([])

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            ReplicaSpec(SPR, OPT, count=0)
