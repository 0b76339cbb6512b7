"""Cross-module integration tests: full paper scenarios end to end."""

import pytest

from repro import (
    InferenceRequest,
    NumaBackend,
    check_all_findings,
    get_model,
    get_platform,
    run_inference,
)
from repro.core.runner import CharacterizationSweep
from repro.engine.inference import InferenceSimulator
from repro.numa.modes import QUAD_FLAT
from repro.offload.engine import OffloadSimulator
from repro.perfcounters.collector import CounterModel


class TestPaperMainResult:
    """The paper's headline narrative, executed end-to-end."""

    def test_spr_beats_icl_everywhere(self):
        sweep = CharacterizationSweep(
            [get_platform("icl"), get_platform("spr")],
            [get_model("opt-6.7b"), get_model("llama2-13b"),
             get_model("opt-66b")],
            batch_sizes=[1, 8, 32])
        rows = sweep.run()
        by_key = {(r.model, r.batch_size, r.platform): r for r in rows}
        for model in ("OPT-6.7B", "LLaMA2-13B", "OPT-66B"):
            for batch in (1, 8, 32):
                icl = by_key[(model, batch, "ICL-8352Y")]
                spr = by_key[(model, batch, "SPR-Max-9468")]
                assert spr.metrics["e2e_s"] < icl.metrics["e2e_s"]
                assert spr.metrics["e2e_throughput"] > \
                    icl.metrics["e2e_throughput"]

    def test_gpu_cpu_crossover_story(self):
        # Small model: GPU wins. Big model requiring offload: CPU wins.
        request = InferenceRequest(batch_size=1)
        spr, a100 = get_platform("spr"), get_platform("a100")
        small_cpu = run_inference(spr, get_model("opt-6.7b"), request)
        small_gpu = run_inference(a100, get_model("opt-6.7b"), request)
        big_cpu = run_inference(spr, get_model("opt-30b"), request)
        big_gpu = run_inference(a100, get_model("opt-30b"), request)
        assert small_gpu.e2e_s < small_cpu.e2e_s
        assert big_cpu.e2e_s < big_gpu.e2e_s

    def test_all_findings_hold_end_to_end(self):
        results = check_all_findings()
        failed = [f for f in results if not f.holds]
        assert not failed, "; ".join(
            f"KF#{f.finding_id}: {f.detail}" for f in failed)


class TestConfiguredPipeline:
    """NUMA + cores + counters through one pipeline."""

    def test_best_config_pipeline(self):
        backend = NumaBackend(numa=QUAD_FLAT)
        simulator = InferenceSimulator(get_platform("spr"), backend, cores=48)
        result = simulator.run(get_model("llama2-13b"),
                               InferenceRequest(batch_size=8))
        counters = CounterModel(get_platform("spr"), backend,
                                cores=48).from_result(result)
        assert result.e2e_s > 0
        assert counters.llc_mpki > 0
        assert counters.upi_utilization < 0.1  # single socket

    def test_offload_vs_inmemory_same_model_h100(self):
        # OPT-30B fits H100 in memory; force-offloading it must be slower
        # than the in-memory run (offloading only pays when necessary).
        model = get_model("opt-30b")
        request = InferenceRequest(batch_size=1)
        in_memory = InferenceSimulator(get_platform("h100")).run(model, request)
        offloaded = OffloadSimulator(get_platform("h100")).run(model, request)
        assert offloaded.e2e_s > in_memory.e2e_s


class TestMetricConsistency:
    def test_phase_times_compose_to_e2e(self):
        result = run_inference(get_platform("spr"), get_model("opt-13b"),
                               InferenceRequest(batch_size=4))
        assert result.e2e_s == pytest.approx(
            result.ttft_s + result.tpot_s * result.request.decode_steps,
            rel=0.01)

    def test_throughput_latency_reciprocity(self):
        request = InferenceRequest(batch_size=2, output_len=16)
        result = run_inference(get_platform("spr"), get_model("opt-13b"),
                               request)
        assert result.e2e_throughput == pytest.approx(
            request.total_generated_tokens / result.e2e_s)

    def test_offload_metrics_same_identities(self):
        request = InferenceRequest(batch_size=2)
        result = run_inference(get_platform("a100"), get_model("opt-66b"),
                               request)
        assert result.e2e_s == pytest.approx(
            result.ttft_s + result.tpot_s * request.decode_steps, rel=0.01)
