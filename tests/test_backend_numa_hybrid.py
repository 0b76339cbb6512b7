"""NUMA and CPU–GPU hybrid execution folded into the backend layer.

Four contracts, each pinned here:

1. **one placement owner** — :class:`NumaBackend` prices every NUMA
   config x core count as pinned below, the placement it prices with is
   the one ``config_label`` and the remote-access counter report, a GPU
   refuses it, and ``OffloadSimulator.run``'s closed-form decode matches
   its original per-step loop (``exact=True``) to ≤1e-9 for both KV
   placements;
2. **hybrid pricing** — :class:`HybridBackend` charges its whole GPU
   prefill leg through ``prefill_comm_s``, priced by the same
   ``gpu_prefill_leg`` the offload engine uses (bit-equal where the
   placements coincide), while decode delegates to the inner CPU backend;
3. **cost-table isolation** — placements enter the frozen backend
   signature, so two NUMA placements (or hybrid vs pure-CPU) on one
   (platform, model) warm disjoint :class:`DecodeCostTable`\\ s, and
   ``clear_caches()`` drops the new hybrid memo tables too;
4. **fleet scale** — mixed CPU/GPU/hybrid fleets keep the event-horizon
   fast-forward ≤1e-9 contract and shard bit-identically across
   workers 1/2/4.
"""

import math

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    JoinShortestQueueRouter,
    ReplicaSpec,
    ShardRouter,
    run_sharded,
)
from repro.engine import backend as backend_module
from repro.engine.backend import (
    BaselineBackend,
    HybridBackend,
    NumaBackend,
    QuantizedBackend,
    TensorParallelBackend,
    clear_backend_op_caches,
    parse_backend,
)
from repro.core.runner import CharacterizationSweep, run_inference
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.engine.stepcost import decode_cost_table
from repro.experiments._sweeps import clear_caches
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.model import NumaModel, hot_cold_effective_bandwidth
from repro.numa.modes import (
    EVALUATED_CONFIGS,
    KNOWN_CONFIGS,
    QUAD_FLAT,
    SNC_CACHE,
    SNC_FLAT,
    get_config,
)
from repro.offload.engine import OffloadSimulator
from repro.perfcounters.collector import CounterModel
from repro.perfcounters.counters import LINE_BYTES
from repro.scaling.cores import CoreScalingModel
from repro.serving.arrivals import poisson_arrivals
from repro.workloads.generator import WorkloadSpec
from repro.workloads.streams import ShardableStream

SPR = get_platform("spr")
A100 = get_platform("a100")
H100 = get_platform("h100")
LLAMA7 = get_model("llama2-7b")
LLAMA13 = get_model("llama2-13b")

REL = 1e-9


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def decode_heavy_spec():
    return WorkloadSpec(name="agentic", input_len_range=(16, 64),
                        output_len_range=(96, 192), batch_size=1,
                        priority_metric="tpot_s")


# -- NUMA placement: one owner, the backend ---------------------------------

#: (prefill.time_s, decode.time_s, e2e_s) as float hex for LLaMA2-7B at
#: batch 2, 256 in / 16 out, per (NUMA config, cores). Recorded from the
#: engine-config placement path this backend replaced, so they hold the
#: backend to that path's prices; quad_hbm_only prices as quad_flat here
#: because HBM holds the whole footprint.
NUMA_CORE_PINS = {
    ('quad_cache', 1): ('0x1.a47931423f9d1p+0', '0x1.6b3bf1bae908ep+3', '0x1.9fcb17e330fc8p+3'),
    ('quad_cache', 12): ('0x1.456609598ea27p-3', '0x1.44f1300171380p+0', '0x1.6d9df12ca30c5p+0'),
    ('quad_cache', 48): ('0x1.d8f15f62798d8p-5', '0x1.29f06a7cff4aap-1', '0x1.477f807326e38p-1'),
    ('quad_cache', 96): ('0x1.d893409d24f90p-4', '0x1.4090deab909a8p+0', '0x1.5e1a12b562ea1p+0'),
    ('quad_flat', 1): ('0x1.9d8b7a1d77ab9p+0', '0x1.3bb0ebcebf806p+3', '0x1.6f625b126e75dp+3'),
    ('quad_flat', 12): ('0x1.3f48fe5738911p-3', '0x1.1afe0ca988ce7p+0', '0x1.42e72c746fe09p+0'),
    ('quad_flat', 48): ('0x1.cdf04b91783b3p-5', '0x1.042f311447b89p-1', '0x1.210e35cd5f3c4p-1'),
    ('quad_flat', 96): ('0x1.9b4ff9bd78651p-4', '0x1.17309ed4ed557p+0', '0x1.30e59e70c4dbcp+0'),
    ('snc_cache', 1): ('0x1.b3e2e355d8d6cp+0', '0x1.d4fed6041d21dp+3', '0x1.05bd99376c1e5p+4'),
    ('snc_cache', 12): ('0x1.52ff885bca8a1p-3', '0x1.a242cc4208992p+0', '0x1.cca2bd4d81ea6p+0'),
    ('snc_cache', 48): ('0x1.18ae2d5aed56ep-4', '0x1.7ded10b721224p-1', '0x1.a102d6627ecd2p-1'),
    ('snc_cache', 96): ('0x1.306da42cb0f55p-3', '0x1.9c9bb88871234p+0', '0x1.c2a96d0e0741fp+0'),
    ('snc_flat', 1): ('0x1.aaefd6c656943p+0', '0x1.9795ee5dbcd12p+3', '0x1.ccf3e93687a3ap+3'),
    ('snc_flat', 12): ('0x1.4b1a04ce1b5e5p-3', '0x1.6c136945d1bb6p+0', '0x1.9576a9df95273p+0'),
    ('snc_flat', 48): ('0x1.eafc9817d4cd9p-5', '0x1.4d28d13a895aap-1', '0x1.6bd89abc06a78p-1'),
    ('snc_flat', 96): ('0x1.08dcdbbc3c2afp-3', '0x1.672a10bdde3f0p+0', '0x1.8845ac3565c46p+0'),
    ('quad_hbm_only', 1): ('0x1.9d8b7a1d77ab9p+0', '0x1.3bb0ebcebf806p+3', '0x1.6f625b126e75dp+3'),
    ('quad_hbm_only', 12): ('0x1.3f48fe5738911p-3', '0x1.1afe0ca988ce7p+0', '0x1.42e72c746fe09p+0'),
    ('quad_hbm_only', 48): ('0x1.cdf04b91783b3p-5', '0x1.042f311447b89p-1', '0x1.210e35cd5f3c4p-1'),
    ('quad_hbm_only', 96): ('0x1.9b4ff9bd78651p-4', '0x1.17309ed4ed557p+0', '0x1.30e59e70c4dbcp+0'),
}

PIN_REL_TOL = 1e-9


class TestNumaAdapterParity:
    REQUEST = InferenceRequest(batch_size=2, input_len=256, output_len=16)

    @pytest.mark.parametrize("numa", KNOWN_CONFIGS, ids=lambda c: c.label)
    @pytest.mark.parametrize("cores", (1, 12, 48, 96))
    def test_prices_match_pin(self, numa, cores):
        result = InferenceSimulator(SPR, NumaBackend(numa=numa),
                                    cores=cores).run(LLAMA7, self.REQUEST)
        got = [result.prefill.time_s, result.decode.time_s, result.e2e_s]
        want = [float.fromhex(v) for v in NUMA_CORE_PINS[(numa.label, cores)]]
        assert got == pytest.approx(want, rel=PIN_REL_TOL, abs=0.0)

    @pytest.mark.parametrize("numa", EVALUATED_CONFIGS,
                             ids=lambda c: c.label)
    def test_bandwidth_and_capacity_derivations_match(self, numa):
        # The simulator adds only core scaling (and socket spanning) to
        # the backend's own NumaModel.
        simulator = InferenceSimulator(SPR, backend=NumaBackend(numa=numa))
        placement = NumaModel(SPR, numa)
        footprint = 30e9
        assert simulator.effective_bandwidth(footprint) == \
            placement.effective_bandwidth(footprint) \
            * CoreScalingModel(SPR, 48).bandwidth_factor
        assert simulator.memory_capacity() == placement.capacity_bytes

    def test_numa_aware_study_runs_through_backend(self):
        naive = InferenceSimulator(
            SPR, backend=NumaBackend(numa=SNC_FLAT)).run(LLAMA7, self.REQUEST)
        aware = InferenceSimulator(
            SPR, backend=NumaBackend(numa=SNC_FLAT, numa_aware=True)
        ).run(LLAMA7, self.REQUEST)
        # NUMA-aware allocation recovers bandwidth lost to sub-node
        # remote accesses; the speedup direction is the paper's claim.
        assert naive.e2e_s / aware.e2e_s > 1.0

    def test_config_label_names_the_priced_placement(self):
        result = InferenceSimulator(
            SPR, backend=NumaBackend(numa=SNC_FLAT)).run(LLAMA7, self.REQUEST)
        assert result.config_label == "snc_flat/48c"
        wrapped = InferenceSimulator(
            SPR, backend=parse_backend("int8-numa:quad_cache"), cores=24)
        assert wrapped.config_label == "quad_cache/24c"
        assert InferenceSimulator(SPR).config_label == "quad_flat/48c"

    def test_counter_remote_fraction_is_the_priced_placement(self):
        counters = CounterModel(
            SPR, NumaBackend(numa=SNC_FLAT, numa_aware=True))
        result = counters.simulator.run(LLAMA7, self.REQUEST)
        total_bytes = result.prefill.total_bytes + result.decode.total_bytes
        estimate = counters.from_result(result)
        assert estimate.remote_llc_accesses == pytest.approx(
            0.15 * total_bytes / LINE_BYTES, rel=1e-12)

    def test_gpu_refuses_numa_placement_at_construction(self):
        with pytest.raises(ValueError, match="NUMA model applies to CPUs"):
            InferenceSimulator(H100, backend=NumaBackend(numa=SNC_FLAT))
        with pytest.raises(ValueError, match="NUMA model applies to CPUs"):
            InferenceSimulator(
                H100, backend=parse_backend("int8-numa:snc_flat"))

    def test_offloaded_gpu_cell_refuses_numa_placement(self):
        # OPT-66B offloads on an A100: the placement is still refused, not
        # silently dropped on the way to the offloading engine.
        request = InferenceRequest(batch_size=1)
        assert run_inference(A100, get_model("opt-66b"), request).placement
        with pytest.raises(ValueError, match="NUMA model applies to CPUs"):
            run_inference(A100, get_model("opt-66b"), request,
                          NumaBackend(numa=get_config("quad_flat")))
        sweep = CharacterizationSweep([SPR, A100], [LLAMA7], [1],
                                      backend=NumaBackend(numa=QUAD_FLAT))
        with pytest.raises(ValueError, match="NUMA model applies to CPUs"):
            sweep.run()


# -- hot/cold placement across memory tiers ---------------------------------


class TestHotColdPlacement:
    def test_traffic_blend_is_monotonic_in_hot_fraction(self):
        model = NumaModel(SPR, QUAD_FLAT)
        bws = [model.hot_cold_bandwidth(f) for f in (0.1, 0.5, 0.9)]
        assert bws[0] < bws[1] < bws[2]

    def test_backend_prices_decode_faster_with_hotter_placement(self):
        request = InferenceRequest(batch_size=2, input_len=128,
                                   output_len=16)
        times = []
        for hot in (0.3, 0.9):
            result = InferenceSimulator(
                SPR, backend=NumaBackend(hot_fraction=hot)
            ).run(LLAMA13, request)
            times.append(result.decode.time_s)
        assert times[1] < times[0]

    def test_blend_weights_traffic_not_bytes(self):
        # Harmonic blend: serving 90% of *traffic* locally at 2x remote
        # bandwidth is worth more than the byte split would suggest.
        blended = hot_cold_effective_bandwidth(0.9, 200e9, 100e9)
        assert blended == pytest.approx(1.0 / (0.9 / 200e9 + 0.1 / 100e9))

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            hot_cold_effective_bandwidth(1.5, 200e9, 100e9)
        with pytest.raises(ValueError):
            NumaBackend(hot_fraction=-0.1)

    def test_hot_fraction_enters_label_and_signature(self):
        plain = NumaBackend()
        hot = NumaBackend(hot_fraction=0.8)
        assert plain.signature != hot.signature
        assert "hot0.8" in hot.label


# -- adapter parity: OffloadSimulator closed form vs stepped loop -----------


class TestOffloadAdapterParity:
    CASES = (
        # (gpu, model, request) — spanning both KV placements.
        ("a100", "opt-30b", InferenceRequest(batch_size=1, input_len=512,
                                             output_len=32)),
        ("h100", "opt-66b", InferenceRequest(batch_size=32, input_len=512,
                                             output_len=32)),
        ("a100", "opt-66b", InferenceRequest(batch_size=8, input_len=256,
                                             output_len=64)),
    )

    @pytest.mark.parametrize("gpu,model,request_",
                             CASES, ids=lambda v: str(v))
    def test_fast_matches_stepped(self, gpu, model, request_):
        simulator = OffloadSimulator(get_platform(gpu))
        fast = simulator.run(get_model(model), request_)
        exact = simulator.run(get_model(model), request_, exact=True)
        for attr in ("prefill_time_s", "decode_time_s", "loading_time_s",
                     "compute_time_s", "e2e_s"):
            assert close(getattr(fast, attr), getattr(exact, attr)), attr

    def test_both_kv_placements_covered(self):
        placements = set()
        for gpu, model, request_ in self.CASES:
            result = OffloadSimulator(get_platform(gpu)).run(
                get_model(model), request_)
            placements.add(result.placement.kv_on_gpu)
        assert placements == {True, False}


# -- hybrid backend pricing -------------------------------------------------


class TestHybridBackend:
    REQUEST = InferenceRequest(batch_size=4, input_len=512, output_len=33)

    def test_prefill_charged_entirely_as_comm(self):
        backend = HybridBackend(gpu=A100)
        assert backend.prefill_ops(LLAMA13, 4, 512) == ()
        comm = backend.prefill_comm_s(LLAMA13, 4, 512)
        assert comm > 0
        result = InferenceSimulator(SPR, backend=backend).run(
            LLAMA13, self.REQUEST)
        assert result.prefill.time_s == comm
        # Roofline legs are empty: no CPU compute attributed to prefill.
        assert result.prefill.compute_busy_s == 0.0

    def test_prefill_leg_matches_offload_engine(self):
        # Where the placements coincide (KV on host, so no residency
        # deduction), the hybrid prefill leg and the offload engine's
        # prefill are the same computation — bit-equal, by construction.
        request = InferenceRequest(batch_size=32, input_len=512,
                                   output_len=32)
        offload = OffloadSimulator(A100).run(get_model("opt-66b"), request)
        assert not offload.placement.kv_on_gpu
        backend = HybridBackend(gpu=A100)
        assert backend.prefill_comm_s(get_model("opt-66b"), 32, 512) == \
            offload.prefill_time_s

    # Every wrapper forwards the hooks it does not override to its
    # inner backend (WrapperBackend); *overridden* names the rest. The
    # inner backend places quad_flat, so the NUMA wrapper picks a cache
    # mode, whose capacity (DDR only) differs from flat's too.
    @pytest.mark.parametrize("wrap,overridden", [
        (lambda inner: TensorParallelBackend(inner=inner),
         {"decode_ops", "decode_comm_s", "capacity_scale"}),
        (lambda inner: NumaBackend(numa=SNC_CACHE, numa_aware=True,
                                   inner=inner),
         {"numa_model", "tier_bandwidth", "memory_capacity_bytes"}),
        (lambda inner: HybridBackend(gpu=A100, inner=inner), set()),
    ], ids=["tp", "numa", "hybrid"])
    def test_decode_delegates_to_inner_backend(self, wrap, overridden):
        inner = parse_backend("int8")
        wrapper = wrap(inner)
        hooks = {
            "compute_dtype": lambda b: b.compute_dtype,
            "adjusts": lambda b: b.adjusts,
            "weight_bytes": lambda b: b.weight_bytes(LLAMA13),
            "footprint_bytes": lambda b: b.footprint_bytes(LLAMA13,
                                                           self.REQUEST),
            "capacity_scale": lambda b: b.capacity_scale,
            "decode_ops": lambda b: b.decode_ops(LLAMA13, 4, 600),
            "decode_comm_s": lambda b: b.decode_comm_s(LLAMA13, 4),
            "numa_model": lambda b: (b.numa_model(SPR).config,
                                     b.numa_model(SPR).numa_aware),
            "tier_bandwidth": lambda b: b.tier_bandwidth(SPR, 40e9),
            "memory_capacity_bytes": lambda b: b.memory_capacity_bytes(SPR),
        }
        assert inner.adjusts  # the forwarded values are not defaults
        for name, hook in hooks.items():
            if name in overridden:
                assert hook(wrapper) != hook(inner), name
            else:
                assert hook(wrapper) == hook(inner), name
        if not overridden:  # hybrid changes prefill only
            run = lambda b: InferenceSimulator(SPR, backend=b).run(
                LLAMA13, self.REQUEST)
            assert run(wrapper).decode.time_s == run(inner).decode.time_s

    def test_fast_path_matches_exact_loop(self):
        simulator = InferenceSimulator(
            SPR, backend=HybridBackend(gpu=A100, inner=QuantizedBackend()))
        fast = simulator.run(LLAMA13, self.REQUEST)
        exact = simulator.run(LLAMA13, self.REQUEST, exact=True)
        assert close(fast.e2e_s, exact.e2e_s)
        assert fast.prefill.time_s == exact.prefill.time_s

    def test_composes_under_tp_and_over_quantization(self):
        backend = parse_backend("int8-numa:quad_cache-hybrid:a100-tp2")
        assert isinstance(backend, TensorParallelBackend)
        assert backend.label == "int8-quad_cache-hyb.a100-tp2"
        result = InferenceSimulator(SPR, backend=backend).run(
            LLAMA13, self.REQUEST)
        assert result.e2e_s > 0

    def test_identity_hashes_by_signature(self):
        # Platform holds an unhashable tier list; hybrid identity lives
        # in the signature so it can key op-graph and prefill memos.
        a = HybridBackend(gpu=A100)
        b = HybridBackend(gpu=A100)
        c = HybridBackend(gpu=H100)
        assert a == b and hash(a) == hash(b)
        assert a != c


# -- cost-table isolation ----------------------------------------------------


class TestCostTableIsolation:
    REQUEST = InferenceRequest(batch_size=2)

    def _executor(self, backend):
        sim = InferenceSimulator(SPR, backend=backend)
        return sim._executor(LLAMA7, self.REQUEST)

    def test_two_placements_warm_disjoint_tables(self):
        clear_caches()
        quad = self._executor(NumaBackend(numa=QUAD_FLAT))
        snc = self._executor(NumaBackend(numa=SNC_FLAT, numa_aware=True))
        assert quad.pricing_signature != snc.pricing_signature
        quad_table = decode_cost_table(quad, LLAMA7)
        snc_table = decode_cost_table(snc, LLAMA7)
        assert quad_table is not snc_table
        probes = [(1, 128), (2, 64)]
        before = [quad_table.step_time(*p) for p in probes]
        for probe in probes:
            snc_table.step_time(*probe)
        assert [quad_table.step_time(*p) for p in probes] == before

    def test_hybrid_and_pure_cpu_tables_disjoint(self):
        clear_caches()
        hybrid = self._executor(HybridBackend(gpu=A100))
        plain = self._executor(BaselineBackend())
        assert hybrid.pricing_signature != plain.pricing_signature
        hybrid_table = decode_cost_table(hybrid, LLAMA7)
        plain_table = decode_cost_table(plain, LLAMA7)
        assert hybrid_table is not plain_table
        # Decode prices identically (hybrid delegates to the same inner
        # graph) but prefill differs: the hybrid table carries the GPU
        # leg as comm, the plain one prices CPU prefill ops.
        assert hybrid_table.step_time(1, 128) == \
            plain_table.step_time(1, 128)
        assert hybrid_table.prefill_time(1, 128) != \
            plain_table.prefill_time(1, 128)

    def test_clear_caches_drops_hybrid_memos(self):
        backend = HybridBackend(gpu=A100)
        backend.prefill_comm_s(LLAMA7, 1, 128)
        assert backend_module._HYBRID_EXECUTORS
        assert backend_module._hybrid_prefill_leg.cache_info().currsize > 0
        clear_caches()
        assert not backend_module._HYBRID_EXECUTORS
        assert backend_module._hybrid_prefill_leg.cache_info().currsize == 0

    def test_clear_backend_op_caches_is_the_hook(self):
        backend = HybridBackend(gpu=A100)
        backend.prefill_comm_s(LLAMA7, 1, 128)
        clear_backend_op_caches()
        assert backend_module._hybrid_prefill_leg.cache_info().currsize == 0


# -- parse_backend hardening -------------------------------------------------


class TestParseHardening:
    def test_unknown_token_gets_did_you_mean(self):
        with pytest.raises(ValueError, match=r"did you mean.*int8"):
            parse_backend("int9")

    def test_unknown_token_lists_valid_vocabulary(self):
        with pytest.raises(ValueError, match=r"valid tokens:.*hybrid:GPU"):
            parse_backend("blah")

    def test_malformed_hot_option_names_token(self):
        with pytest.raises(ValueError,
                           match=r"malformed option 'hot=x'.*numa:quad_flat"):
            parse_backend("numa:quad_flat,hot=x")

    def test_out_of_range_hot_fraction_rejected(self):
        with pytest.raises(ValueError, match=r"fraction in \[0, 1\]"):
            parse_backend("numa:quad_flat,hot=1.5")

    def test_unknown_numa_option_named(self):
        with pytest.raises(ValueError, match=r"unknown option 'awre'"):
            parse_backend("numa:snc_flat,awre")

    def test_unknown_numa_config_suggested(self):
        with pytest.raises(ValueError, match=r"unknown backend token"):
            parse_backend("numa:quad_falt")

    def test_hybrid_rejects_cpu_platform(self):
        with pytest.raises(ValueError, match=r"is a CPU"):
            parse_backend("hybrid:spr")

    def test_hybrid_rejects_extra_options(self):
        with pytest.raises(ValueError, match=r"only the GPU name"):
            parse_backend("hybrid:a100,fast")

    def test_duplicate_wrapper_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate numa"):
            parse_backend("numa:quad_flat-numa:snc_flat")
        with pytest.raises(ValueError, match="duplicate hybrid"):
            parse_backend("hybrid:a100-hybrid:h100")

    def test_round_trip_labels(self):
        assert parse_backend("numa:snc_flat,aware").label == \
            "bf16-snc_flat-aware"
        assert parse_backend("numa:quad_flat,hot=0.75").label == \
            "bf16-quad_flat-hot0.75"
        assert parse_backend("hybrid:a100").label == "bf16-hyb.a100"


# -- fleet scale: mixed CPU/GPU/hybrid fleets -------------------------------


def mixed_fleet_config():
    return ClusterConfig([
        ReplicaSpec(SPR, LLAMA7, count=2, max_batch=4),
        ReplicaSpec(A100, LLAMA7, count=1, max_batch=4),
        ReplicaSpec(SPR, LLAMA7, count=1, max_batch=4,
                    backend=HybridBackend(gpu=A100)),
    ])


class TestMixedFleetParity:
    def test_fast_forward_matches_exact_stepping(self):
        from tests.test_backends import (
            assert_cluster_reports_agree,
            run_both_modes,
        )

        arrivals = poisson_arrivals(3.0, 40, decode_heavy_spec(), seed=5)
        exact, fast = run_both_modes(mixed_fleet_config(), arrivals,
                                     JoinShortestQueueRouter)
        assert_cluster_reports_agree(exact, fast)

    @pytest.mark.parametrize("numa_spec", ("numa:snc_flat,aware",
                                           "numa:quad_flat,hot=0.8"))
    def test_numa_placed_fleet_fast_forward_is_exact(self, numa_spec):
        from tests.test_backends import (
            assert_cluster_reports_agree,
            run_both_modes,
        )

        config = ClusterConfig([
            ReplicaSpec(SPR, LLAMA7, count=2, max_batch=4,
                        backend=parse_backend(numa_spec)),
        ])
        arrivals = poisson_arrivals(2.0, 32, decode_heavy_spec(), seed=11)
        exact, fast = run_both_modes(config, arrivals,
                                     JoinShortestQueueRouter)
        assert_cluster_reports_agree(exact, fast)

    def test_sharded_workers_bit_identical(self):
        from tests.test_cluster_sharded import assert_reports_identical

        stream = ShardableStream(rate_per_s=3.0, count=48,
                                 spec=decode_heavy_spec(), seed=7)
        reports = {workers: run_sharded(mixed_fleet_config(),
                                        ShardRouter(2), stream,
                                        workers=workers)
                   for workers in (1, 2, 4)}
        assert_reports_identical(reports[1], reports[2])
        assert_reports_identical(reports[1], reports[4])
        hybrid_nodes = [s for s in reports[4].node_stats
                        if "hyb" in s.name]
        assert hybrid_nodes and any(s.completed for s in hybrid_nodes)
