"""Tensor-parallel backend tests."""

import pytest

from repro.cli import main
from repro.engine.backend import (
    HybridBackend,
    NumaBackend,
    TensorParallelBackend,
    TPConfig,
    parse_backend,
)
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.modes import SNC_FLAT
from repro.serving.scheduler import BatchingSimulator


def tp2_speedup(platform, model, request):
    """E2E speedup of TP=2 over one socket (>1 = TP wins)."""
    single = InferenceSimulator(platform).run(model, request)
    parallel = InferenceSimulator(
        platform, backend=TensorParallelBackend()).run(model, request)
    return single.e2e_s / parallel.e2e_s


class TestTPConfig:
    def test_defaults(self):
        config = TPConfig()
        assert config.degree == 2

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            TPConfig(degree=0)


class TestTensorParallelSimulator:
    """TP pricing on the one path: InferenceSimulator + TP backend."""

    def setup_method(self):
        self.spr = get_platform("spr")
        self.model = get_model("llama2-13b")
        self.request = InferenceRequest(batch_size=1)

    def run_tp(self, tp=TPConfig()):
        return InferenceSimulator(
            self.spr, backend=TensorParallelBackend(tp)).run(self.model,
                                                             self.request)

    def test_tp2_beats_single_socket_on_decode(self):
        single = InferenceSimulator(self.spr).run(self.model, self.request)
        tp = self.run_tp()
        assert tp.tpot_s < single.tpot_s

    def test_tp2_speedup_near_2x(self):
        speedup = tp2_speedup(self.spr, self.model, self.request)
        assert 1.6 < speedup < 2.1

    def test_tp2_beats_naive_96_cores(self):
        # The headline: disciplined 2-socket use wins where naive loses.
        naive = InferenceSimulator(
            self.spr, NumaBackend(cores=96)).run(self.model, self.request)
        tp = self.run_tp()
        single = InferenceSimulator(self.spr).run(self.model, self.request)
        assert naive.e2e_s > single.e2e_s   # KF#3
        assert tp.e2e_s < single.e2e_s      # TP fixes it

    def test_degree_1_matches_single_socket_closely(self):
        tp1 = self.run_tp(TPConfig(degree=1))
        single = InferenceSimulator(self.spr).run(self.model, self.request)
        assert tp1.e2e_s == pytest.approx(single.e2e_s, rel=0.15)

    def test_degree_beyond_sockets_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            InferenceSimulator(
                self.spr, backend=TensorParallelBackend(TPConfig(degree=4)))

    def test_gpu_rejected(self):
        with pytest.raises(ValueError, match="not a CPU"):
            InferenceSimulator(get_platform("h100"),
                               backend=TensorParallelBackend())

    def test_allreduce_cost_grows_with_batch(self):
        backend = TensorParallelBackend()
        small = backend.allreduce_s(self.model, rows=1)
        large = backend.allreduce_s(self.model, rows=512)
        assert large > small

    def test_allreduce_moves_hidden_states_at_the_base_dtype(self):
        model = get_model("llama2-7b")
        latency = (2 * model.n_layers
                   * TensorParallelBackend.interconnect.latency_s)

        def allreduce(spec):
            return parse_backend(spec).allreduce_s(model, 64)

        # FP32 activations double the bytes of the bandwidth leg.
        assert allreduce("fp32-tp2") - latency == pytest.approx(
            2 * (allreduce("bf16-tp2") - latency), rel=1e-12)
        # Every two-byte activation base prices as before.
        for spec in ("bf16-tp2", "fp16-tp2", "int8-tp2", "w8a8-tp2"):
            assert allreduce(spec) == 0.000992234432234432

    def test_spilled_model_gains_from_tp(self):
        # OPT-66B spills one socket's HBM; TP halves each socket's share
        # so both shards fit in HBM — a super-linear win.
        model = get_model("opt-66b")
        speedup = tp2_speedup(self.spr, model, self.request)
        assert speedup > 1.8


class TestPlatformCheck:
    """A TP spec is valid alone; only a platform makes it impossible."""

    def test_spec_parses_without_a_platform(self):
        assert parse_backend("tp4").tp.degree == 4

    def test_inference_simulator_rejects_tp_on_gpu(self):
        with pytest.raises(ValueError, match="not a CPU"):
            InferenceSimulator(get_platform("h100"),
                               backend=parse_backend("tp2"))

    def test_inference_simulator_rejects_degree_above_sockets(self):
        with pytest.raises(ValueError, match="exceeds the 2 sockets"):
            InferenceSimulator(get_platform("spr"),
                               backend=parse_backend("tp4"))

    @pytest.mark.parametrize("wrap", [
        lambda tp: NumaBackend(numa=SNC_FLAT, inner=tp),
        lambda tp: HybridBackend(gpu=get_platform("a100"), inner=tp),
    ], ids=["numa", "hybrid"])
    def test_check_sees_through_wrappers(self, wrap):
        with pytest.raises(ValueError, match="exceeds"):
            InferenceSimulator(get_platform("spr"),
                               backend=wrap(parse_backend("tp4")))

    def test_inference_simulator_rejects_tp_over_socket_spanning_cores(self):
        # TP already spans both sockets (capacity_scale 2); 96 cores would
        # count the second socket's memory a second time.
        with pytest.raises(ValueError, match="96 cores span the sockets"):
            InferenceSimulator(get_platform("spr"),
                               backend=TensorParallelBackend(
                                   inner=NumaBackend(cores=96)))
        InferenceSimulator(get_platform("spr"), backend=TensorParallelBackend(
            inner=NumaBackend(cores=48)))

    def test_placement_over_tp_refuses_socket_spanning_cores(self):
        # The same refusal with the placement outside, naming the TP.
        with pytest.raises(ValueError, match="96 cores span the sockets of "
                           "SPR-Max-9468, which backend bf16-tp2 already"):
            InferenceSimulator(get_platform("spr"), backend=NumaBackend(
                cores=96, inner=parse_backend("tp2")))
        InferenceSimulator(get_platform("spr"), backend=NumaBackend(
            cores=48, inner=parse_backend("tp2")))

    def test_batching_simulator_rejects_degree_above_sockets(self):
        with pytest.raises(ValueError, match="exceeds"):
            BatchingSimulator(get_platform("spr"), get_model("llama2-7b"),
                              backend=parse_backend("tp4"))

    def test_cluster_cli_exits_with_the_error(self, capsys):
        assert main(["cluster", "--platforms", "spr,h100",
                     "--model", "llama2-7b", "--backend", "tp4,tp2",
                     "--rate", "1.0", "--requests", "8"]) == 2
        captured = capsys.readouterr()
        assert "exceeds the 2 sockets" in captured.err
        assert captured.out == ""
