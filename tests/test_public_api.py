"""Public-API surface tests: everything exported must resolve and work."""

import ast
import collections
import importlib
import pathlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.") if info.ispkg)
PACKAGES = ["repro"] + SUBPACKAGES


def _definitions():
    """``name -> modules`` that bind it at top level other than by import
    (``def``, ``class`` or assignment)."""
    root = pathlib.Path(repro.__file__).parent
    found = collections.defaultdict(list)
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join(("repro",) + parts[:-1 if parts[-1] == "__init__"
                                               else None])
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target.id]
            else:
                continue
            for name in targets:
                found[name].append(module)
    return found


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_quickstart_snippet_works(self):
        # The snippet from the package docstring must run as written.
        result = repro.run_inference(
            repro.get_platform("spr"), repro.get_model("llama2-13b"),
            repro.InferenceRequest(batch_size=8))
        assert result.ttft_s > 0
        assert result.tpot_s > 0
        assert result.e2e_throughput > 0


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 20


class TestPublicDocstrings:
    def test_key_classes_documented(self):
        for obj in (repro.InferenceSimulator, repro.OffloadSimulator,
                    repro.GemmSimulator, repro.CounterModel,
                    repro.NumaModel, repro.KVCacheManager,
                    repro.InferenceRequest):
            assert obj.__doc__ and len(obj.__doc__) > 30


class TestLazyExports:
    """Every package but ``repro.experiments`` exports through
    :func:`repro.lazy.lazy_exports`; each name resolves to the object
    its defining module holds."""

    def test_subpackages_found(self):
        assert {"repro.cluster", "repro.serving", "repro.trace",
                "repro.analysis", "repro.calibration", "repro.parallel",
                "repro.quant", "repro.specdecode"} <= set(SUBPACKAGES)

    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_names_are_the_defining_modules_objects(self, module_name):
        package = importlib.import_module(module_name)
        definitions = _definitions()
        for name in package.__all__:
            value = getattr(package, name)
            assert any(getattr(importlib.import_module(module), name) is value
                       for module in definitions[name]), name

    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_dir_lists_every_export(self, module_name):
        package = importlib.import_module(module_name)
        listed = dir(package)
        assert not set(package.__all__) - set(listed)
        assert listed == sorted(listed)

    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_star_import_binds_exactly_all(self, module_name):
        namespace = {}
        exec(f"from {module_name} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(importlib.import_module(
            module_name).__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
            repro.cluster.nosuch
