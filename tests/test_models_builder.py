"""Custom model-builder tests."""

import dataclasses

import pytest

from repro.models.builder import build_model, scale_to_params


class TestBuildModel:
    def test_defaults_to_mha(self):
        model = build_model("X", n_layers=24, d_model=2048, n_heads=16)
        assert model.n_kv_heads == 16
        assert not model.uses_gqa

    def test_gqa_configurable(self):
        # The builder is MHA; GQA is the config's n_kv_heads field.
        model = dataclasses.replace(
            build_model("X", n_layers=24, d_model=2048, n_heads=16),
            n_kv_heads=4)
        assert model.uses_gqa

    def test_default_ffn_ratio_swiglu(self):
        model = build_model("X", n_layers=2, d_model=1024, n_heads=8)
        assert model.d_ff == int(8 * 1024 / 3)

    def test_custom_family(self):
        model = build_model("X", n_layers=2, d_model=1024, n_heads=8)
        assert model.family == "custom"

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            build_model("X", n_layers=2, d_model=1000, n_heads=7)


class TestScaleToParams:
    @pytest.mark.parametrize("target", [1.0, 7.0, 13.0, 30.0, 70.0])
    def test_lands_near_target(self, target):
        model = scale_to_params(target)
        actual = model.param_count() / 1e9
        assert actual == pytest.approx(target, rel=0.45)

    def test_monotone_in_target(self):
        sizes = [scale_to_params(t).param_count() for t in (1, 7, 30, 100)]
        assert sizes == sorted(sizes)

    def test_gqa_ratio_applied(self):
        # The ladder's rungs are MHA: a GQA ratio of 1.
        model = scale_to_params(30.0)
        assert model.n_heads // model.n_kv_heads == 1

    def test_name_reflects_actual_size(self):
        model = scale_to_params(13.0)
        assert model.name.startswith("Custom-")
        assert model.name.endswith("B")

    def test_explicit_name_kept(self):
        assert scale_to_params(7.0, name="MyModel").name == "MyModel"

    def test_built_model_usable_in_simulation(self):
        from repro.engine.inference import simulate
        from repro.engine.request import InferenceRequest
        from repro.hardware.registry import get_platform
        model = scale_to_params(3.0)
        result = simulate(get_platform("spr"), model,
                          InferenceRequest(output_len=4))
        assert result.e2e_s > 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            scale_to_params(0.0)
