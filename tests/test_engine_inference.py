"""Inference-simulator tests: phases, metrics, configuration effects."""

import pytest

from repro.engine.backend import NumaBackend
from repro.engine.inference import (
    InferenceSimulator,
    MemoryCapacityError,
    simulate,
)
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.modes import QUAD_CACHE, QUAD_FLAT, SNC_FLAT


class TestBasicRun:
    def test_runs_and_reports_metrics(self):
        result = simulate(get_platform("spr"), get_model("opt-6.7b"))
        assert result.ttft_s > 0
        assert result.tpot_s > 0
        assert result.e2e_s == pytest.approx(
            result.prefill.time_s + result.decode.time_s)

    def test_e2e_throughput_definition(self):
        # Paper: total generated tokens / end-to-end latency.
        req = InferenceRequest(batch_size=4, output_len=32)
        result = simulate(get_platform("spr"), get_model("opt-6.7b"), req)
        assert result.e2e_throughput == pytest.approx(
            4 * 32 / result.e2e_s)

    def test_decode_steps_count(self):
        req = InferenceRequest(output_len=8)
        result = simulate(get_platform("spr"), get_model("opt-1.3b"), req)
        assert result.tpot_s == pytest.approx(result.decode.time_s / 7)

    def test_single_token_output_skips_decode(self):
        req = InferenceRequest(output_len=1)
        result = simulate(get_platform("spr"), get_model("opt-1.3b"), req)
        assert result.decode.time_s == 0.0
        assert result.tpot_s == 0.0
        assert result.e2e_s == result.ttft_s

    def test_summary_keys(self):
        result = simulate(get_platform("spr"), get_model("opt-1.3b"))
        assert set(result.summary()) == {
            "ttft_s", "tpot_s", "e2e_s", "e2e_throughput",
            "prefill_throughput", "decode_throughput"}

    def test_deterministic(self):
        a = simulate(get_platform("spr"), get_model("opt-6.7b"))
        b = simulate(get_platform("spr"), get_model("opt-6.7b"))
        assert a.e2e_s == b.e2e_s


class TestPhaseCharacter:
    def test_decode_is_memory_bound(self):
        # The paper's central claim about decode.
        result = simulate(get_platform("spr"), get_model("opt-13b"))
        assert result.decode.memory_busy_s >= result.decode.compute_busy_s

    def test_prefill_more_compute_bound_than_decode(self):
        req = InferenceRequest(batch_size=8)
        result = simulate(get_platform("spr"), get_model("opt-13b"), req)
        assert result.prefill.arithmetic_intensity > \
            result.decode.arithmetic_intensity * 10

    def test_decode_dominated_by_weight_traffic_at_batch_1(self):
        result = simulate(get_platform("spr"), get_model("opt-13b"))
        assert result.decode.weight_bytes > result.decode.activation_bytes
        assert result.decode.weight_bytes > result.decode.kv_bytes

    def test_op_times_cover_phase(self):
        result = simulate(get_platform("spr"), get_model("opt-1.3b"))
        assert sum(result.prefill.op_times.values()) == pytest.approx(
            result.prefill.time_s)


class TestScalingBehaviour:
    def test_larger_model_slower(self):
        small = simulate(get_platform("spr"), get_model("opt-6.7b"))
        large = simulate(get_platform("spr"), get_model("opt-30b"))
        assert large.e2e_s > small.e2e_s

    def test_larger_batch_higher_throughput(self):
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        thpt = [simulate(spr, model, InferenceRequest(batch_size=b)).e2e_throughput
                for b in (1, 8, 32)]
        assert thpt == sorted(thpt)

    def test_batch_latency_sublinear(self):
        # Weights are shared across the batch: 32x batch costs far less
        # than 32x time.
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        t1 = simulate(spr, model, InferenceRequest(batch_size=1)).e2e_s
        t32 = simulate(spr, model, InferenceRequest(batch_size=32)).e2e_s
        assert t32 < 8 * t1

    def test_longer_input_raises_ttft(self):
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        short = simulate(spr, model, InferenceRequest(input_len=128))
        long = simulate(spr, model, InferenceRequest(input_len=1024))
        assert long.ttft_s > 2 * short.ttft_s

    def test_decode_time_grows_with_kv_length(self):
        # Later decode steps read a longer cache; with a long prompt the
        # per-step cost is measurably higher.
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        short = simulate(spr, model, InferenceRequest(input_len=128, batch_size=32))
        long = simulate(spr, model, InferenceRequest(input_len=1024, batch_size=32))
        assert long.tpot_s > short.tpot_s


class TestConfigurationEffects:
    def test_quad_flat_beats_snc_flat(self):
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        flat = simulate(spr, model, backend=NumaBackend(numa=QUAD_FLAT))
        snc = simulate(spr, model, backend=NumaBackend(numa=SNC_FLAT))
        assert flat.e2e_s < snc.e2e_s

    def test_flat_beats_cache(self):
        spr = get_platform("spr")
        model = get_model("llama2-13b")
        flat = simulate(spr, model, backend=NumaBackend(numa=QUAD_FLAT))
        cache = simulate(spr, model, backend=NumaBackend(numa=QUAD_CACHE))
        assert flat.e2e_s < cache.e2e_s

    def test_more_cores_faster_within_socket(self):
        spr = get_platform("spr")
        model = get_model("llama2-7b")
        t12 = simulate(spr, model, backend=NumaBackend(cores=12)).e2e_s
        t48 = simulate(spr, model, backend=NumaBackend(cores=48)).e2e_s
        assert t48 < t12

    def test_96_cores_slower_than_48(self):
        spr = get_platform("spr")
        model = get_model("llama2-7b")
        t48 = simulate(spr, model, backend=NumaBackend(cores=48)).e2e_s
        t96 = simulate(spr, model, backend=NumaBackend(cores=96)).e2e_s
        assert t96 > t48

    def test_config_label(self):
        sim = InferenceSimulator(get_platform("spr"),
                                 NumaBackend(numa=SNC_FLAT, cores=24))
        assert sim.config_label == "snc_flat/24c"

    def test_zero_cores_refused_at_construction(self):
        # Zero is a core count, not "unset": it must not price a socket.
        with pytest.raises(ValueError, match="cores must be > 0, got 0"):
            NumaBackend(cores=0)
        with pytest.raises(ValueError, match="cores must be > 0, got -4"):
            NumaBackend(numa=SNC_FLAT, cores=-4)

    def test_gpu_refuses_core_count(self):
        h100 = get_platform("h100")
        assert InferenceSimulator(h100).config_label == "gpu"
        with pytest.raises(ValueError, match="applies to CPUs"):
            InferenceSimulator(h100, NumaBackend(cores=24))


class TestCapacityLimits:
    def test_oversize_gpu_run_raises(self):
        with pytest.raises(MemoryCapacityError, match="offloading"):
            simulate(get_platform("a100"), get_model("opt-30b"))

    def test_opt30b_fits_h100(self):
        result = simulate(get_platform("h100"), get_model("opt-30b"))
        assert result.e2e_s > 0

    def test_opt66b_fits_spr_flat(self):
        result = simulate(get_platform("spr"), get_model("opt-66b"))
        assert result.e2e_s > 0

    def test_opt175b_exceeds_single_socket_spr(self):
        with pytest.raises(MemoryCapacityError):
            simulate(get_platform("spr"), get_model("opt-175b"))
