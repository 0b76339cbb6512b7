"""The option recorder behind ``tools/reach.py`` (``make reach``).

The full audit profiles every experiment, example and golden CLI case
and is too slow for tier-1, so these tests run its recorder over toy
functions: which defaulted parameters does a call vary, and which stay
at their default?
"""

import importlib.util
import pathlib
import sys
import types

import pytest

REACH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "reach.py"

TOY = '''
import dataclasses


def positional(a, b=1, c="x"):
    return a


def keyword_only(a, *, flag=False, scale=1.0):
    return a


def never_called(a, depth=3):
    return a


class Toy:
    def method(self, x, mode="fast"):
        return x


@dataclasses.dataclass
class Record:
    name: str
    size: int = 4
    tags: list = dataclasses.field(default_factory=list)
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def toy(monkeypatch):
    module = types.ModuleType("toy")
    monkeypatch.setitem(sys.modules, "toy", module)
    exec(compile(TOY, "<string>", "exec"), module.__dict__)
    return module


def calls(toy):
    toy.positional(1)
    toy.positional(1, 2)               # b varied, positionally
    toy.keyword_only(1, flag=False)    # equal to the default
    toy.keyword_only(1, scale=2.0)     # scale varied
    toy.Toy().method(1)
    toy.Record("a", tags=[])           # equal to what the factory builds
    toy.Record("b", size=8)            # a field varied


def names(pairs):
    return {f"{key}({name})" for key, name in pairs}


def test_table_covers_every_kind_of_default(reach, toy):
    table = reach.module_options(toy, "toy.py")
    assert names((key, name) for key, _function, defaults in table.values()
                 for name in defaults) == {
        "toy.py:positional(b)", "toy.py:positional(c)",
        "toy.py:keyword_only(flag)", "toy.py:keyword_only(scale)",
        "toy.py:never_called(depth)", "toy.py:Toy.method(mode)",
        "toy.py:Record.__init__(size)", "toy.py:Record.__init__(tags)"}


def test_recorder_separates_varied_from_never_varied(reach, toy):
    recorder = reach.Recorder(reach.module_options(toy, "toy.py"))
    with recorder.recording():
        calls(toy)
    reached = names(recorder.reached_options())
    varied = names(recorder.varied)
    assert varied == {"toy.py:positional(b)", "toy.py:keyword_only(scale)",
                      "toy.py:Record.__init__(size)"}
    assert reached - varied == {
        "toy.py:positional(c)", "toy.py:keyword_only(flag)",
        "toy.py:Toy.method(mode)", "toy.py:Record.__init__(tags)"}
    assert "toy.py:never_called(depth)" not in reached


def test_calls_before_the_table_count(reach, toy):
    # The registries construct their entries while the modules import,
    # before the audit has a table to check calls against.
    recorder = reach.Recorder()
    with recorder.recording():
        toy.Record("early", size=2)
        recorder.track(reach.module_options(toy, "toy.py"))
        toy.positional(1, c="y")
    assert names(recorder.varied) == {"toy.py:Record.__init__(size)",
                                      "toy.py:positional(c)"}


def test_keyword_calls_name_constructors_by_class(reach):
    assert reach.callee_name("cluster/simulator.py:"
                             "ClusterSimulator.__init__") == "ClusterSimulator"
    assert reach.callee_name("cluster/fluid.py:solve") == "solve"
    assert reach.callee_name("engine/inference.py:"
                             "InferenceSimulator.run") == "run"
