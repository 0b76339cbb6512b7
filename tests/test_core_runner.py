"""Run-dispatch and sweep tests."""

import pytest

from repro.core.runner import (
    CharacterizationSweep,
    filter_rows,
    is_offloaded,
    run_inference,
)
from repro.engine.backend import parse_backend
from repro.engine.inference import InferenceSimulator, MemoryCapacityError
from repro.engine.request import InferenceRequest
from repro.engine.results import InferenceResult
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.offload.engine import OffloadResult


class TestRunInference:
    def test_cpu_uses_inference_engine(self):
        result = run_inference(get_platform("spr"), get_model("opt-6.7b"))
        assert isinstance(result, InferenceResult)
        assert not is_offloaded(result)

    def test_fitting_gpu_uses_inference_engine(self):
        result = run_inference(get_platform("a100"), get_model("opt-13b"))
        assert isinstance(result, InferenceResult)

    def test_oversize_gpu_dispatches_to_offload(self):
        result = run_inference(get_platform("a100"), get_model("opt-30b"))
        assert isinstance(result, OffloadResult)
        assert is_offloaded(result)

    def test_both_result_types_share_metric_surface(self):
        in_memory = run_inference(get_platform("a100"), get_model("opt-13b"))
        offloaded = run_inference(get_platform("a100"), get_model("opt-30b"))
        assert set(in_memory.summary()) == set(offloaded.summary())

    def test_backend_that_fits_runs_in_memory(self):
        # INT8 LLaMA2-70B (70.1 GB) fits the H100; BF16 must offload.
        h100, model = get_platform("h100"), get_model("llama2-70b")
        request = InferenceRequest(batch_size=1)
        int8 = parse_backend("int8")
        result = run_inference(h100, model, request, backend=int8)
        assert isinstance(result, InferenceResult)
        assert result == InferenceSimulator(h100, int8).run(model, request)
        assert result.e2e_s == pytest.approx(1.72, abs=0.01)
        assert is_offloaded(run_inference(h100, model, request))

    def test_backend_that_does_not_fit_is_refused(self):
        # Offloading would silently drop the backend.
        with pytest.raises(MemoryCapacityError,
                           match="offloading prices only the plain bf16"):
            run_inference(get_platform("a100"), get_model("opt-66b"),
                          backend=parse_backend("int8"))


class TestCharacterizationSweep:
    def test_full_grid_dimensions(self):
        sweep = CharacterizationSweep(
            [get_platform("icl"), get_platform("spr")],
            [get_model("opt-1.3b"), get_model("opt-6.7b")],
            batch_sizes=[1, 8])
        rows = sweep.run()
        assert len(rows) == 2 * 2 * 2

    def test_rows_carry_coordinates(self):
        sweep = CharacterizationSweep(
            [get_platform("spr")], [get_model("opt-1.3b")], [4])
        row = sweep.run()[0]
        assert row.model == "OPT-1.3B"
        assert row.platform == "SPR-Max-9468"
        assert row.batch_size == 4
        assert row.input_len == 128

    def test_skip_oversize_drops_infeasible(self):
        sweep = CharacterizationSweep(
            [get_platform("spr")], [get_model("opt-175b")], [1])
        assert sweep.run() == []

    def test_gpu_rows_marked_offloaded(self):
        sweep = CharacterizationSweep(
            [get_platform("a100")], [get_model("opt-30b")], [1])
        assert sweep.run()[0].offloaded

    def test_only_capacity_errors_mark_oversize(self, monkeypatch):
        # Anything other than MemoryCapacityError must propagate, though
        # the sweep skips oversize cells — a bug is not an oversize cell.
        import repro.core.runner as runner_mod

        sweep = CharacterizationSweep(
            [get_platform("spr")], [get_model("opt-1.3b")], [1])

        def genuine_bug(*args, **kwargs):
            raise RuntimeError("genuine bug")

        monkeypatch.setattr(runner_mod, "run_inference", genuine_bug)
        with pytest.raises(RuntimeError, match="genuine bug"):
            sweep.run()

        def oversize(*args, **kwargs):
            raise MemoryCapacityError("too big")

        monkeypatch.setattr(runner_mod, "run_inference", oversize)
        assert sweep.run() == []

    def test_oversize_cell_raises_memory_capacity_error(self):
        # The error the sweep skips an oversize cell on.
        with pytest.raises(MemoryCapacityError):
            run_inference(get_platform("spr"), get_model("opt-175b"),
                          InferenceRequest())


class TestFilterRows:
    def make_rows(self):
        sweep = CharacterizationSweep(
            [get_platform("icl"), get_platform("spr")],
            [get_model("opt-1.3b")], [1, 8])
        return sweep.run()

    def test_filter_by_platform(self):
        rows = filter_rows(self.make_rows(), platform="SPR-Max-9468")
        assert len(rows) == 2
        assert all(r.platform == "SPR-Max-9468" for r in rows)

    def test_filter_by_batch(self):
        rows = filter_rows(self.make_rows(), batch_size=8)
        assert len(rows) == 2

    def test_filter_compound(self):
        rows = filter_rows(self.make_rows(), platform="ICL-8352Y",
                           batch_size=1, model="OPT-1.3B")
        assert len(rows) == 1
