#!/usr/bin/env python
"""Reach audit: which ``src/repro`` functions does nothing run?

A ``sys.setprofile`` hook records every Python function called while
three stages run:

* ``run_all_experiments()`` (every registered figure, table and study);
* every ``examples/*.py`` script, as ``__main__``, in a scratch
  directory (``regenerate_paper.py`` writes its ``EXPERIMENTS.md``
  there);
* every ``tests/test_cli_golden.py`` case.

Functions that ``bench/`` or ``tools/`` import from ``repro`` by name
count as reached. Sharded cluster runs call ``cluster/shard.py``'s group
functions in forked worker processes, which the parent's hook does not
see, so the audit wraps the worker entry point to install the hook in
each worker and send back what it recorded.

Every ``def`` under ``src/repro`` that none of this reaches is printed
with its file, line and length: first the exemptions listed in
``EXEMPT`` (each with its reason), then anything else. A function in
the second list has no caller outside its own tests and should be
deleted, pinned by a CLI case, or exempted here with a reason.

The same hook checks options. For every defaulted parameter of every
reached function (a dataclass's generated ``__init__`` included), it
records whether any call, in the parent or a worker, passed a value
other than the default; a ``bench/``, ``tools/`` or ``benchmarks/``
call that sets the parameter by keyword counts too. A parameter never
varied is printed beside its ``EXEMPT_OPTIONS`` reason, or in a second
list: it should become a constant, go, or be pinned by a CLI case.

``docs/reach.md`` holds this report at the current revision, and the
tool fails when its report differs from that block.

Usage::

    PYTHONPATH=src python tools/reach.py    # or: make reach (~15 s)
"""

import ast
import contextlib
import dataclasses
import io
import os
import pathlib
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SOURCES = str(SRC) + os.sep

ABSTRACT = "abstract or protocol hook; every reached subclass overrides it"
ORACLE = "a test uses it as the reference for other code"
PROGRESS = ("`repro cluster --progress` feature; its stderr line carries "
            "wall-clock rates, so no golden case can pin it")
ITEM_1 = "waits on ROADMAP item 1 (KV cache as the admission budget)"
ITEM_11 = ("waits on ROADMAP item 11 (prefix/spec grammar tokens and the "
           "speculative fleet study)")
EXEMPT = {
    "cluster/admission.py:AdmissionScheduler.on_arrival": ABSTRACT,
    "cluster/admission.py:AdmissionScheduler.pick": ABSTRACT,
    "cluster/admission.py:AdmissionScheduler.on_admit": ABSTRACT,
    "cluster/admission.py:AdmissionScheduler.on_finish": ABSTRACT,
    "cluster/router.py:Router.select": ABSTRACT,
    "engine/backend.py:ExecutionBackend.label": ABSTRACT,
    "engine/backend.py:ExecutionBackend._build_prefill_ops": ABSTRACT,
    "engine/backend.py:ExecutionBackend._build_decode_ops": ABSTRACT,
    "engine/backend.py:ExecutionBackend.adjust_timing": ABSTRACT,
    "trace/tracer.py:Tracer.span": ABSTRACT,
    "trace/tracer.py:Tracer.instant": ABSTRACT,
    "trace/tracer.py:Tracer.counter": ABSTRACT,
    "models/layers.py:total_flops": ORACLE,
    "models/layers.py:total_bytes": ORACLE,
    "models/layers.py:total_weight_bytes": ORACLE,
    "models/opgraph.py:decode_step_ops": ORACLE,
    "cluster/autoscaler.py:Autoscaler.pick_drain_target":
        "autoscaler scale-down drain; no experiment or case idles a "
        "scaled fleet long enough",
    "cluster/node.py:ReplicaNode.drain":
        "autoscaler scale-down drain; no experiment or case idles a "
        "scaled fleet long enough",
    "cluster/shard.py:ShardMergeLog.on_event":
        "sharded runs with a failure or drain schedule "
        "(`run_sharded(events=)`); no CLI flag schedules events on the "
        "sharded path",
    "analysis/cost.py:median_list_price":
        "`price_rate` fallback for a platform with no recorded listing "
        "price; every registered platform has one",
    "cli.py:_progress_line": PROGRESS,
    "cli.py:_progress_line.<locals>.progress": PROGRESS,
    "cluster/simulator.py:ClusterSimulator._completed_count": PROGRESS,
    "cluster/shard.py:_worker_main.<locals>.forward": PROGRESS,
    "engine/kvcache.py:KVCacheManager._held": ITEM_1,
    "engine/kvcache.py:KVCacheManager.append_token": ITEM_1,
    "engine/kvcache.py:KVCacheManager.release": ITEM_1,
    "engine/kvcache.py:KVCacheManager.seq_len": ITEM_1,
    "engine/kvcache.py:KVCacheManager.num_sequences": ITEM_1,
    "trace/analysis.py:replica_utilization_timeline":
        "waits on ROADMAP item 5 (observability in every mode)",
    "trace/spans.py:Trace.replica_names":
        "waits on ROADMAP item 5 (read by replica_utilization_timeline)",
    "offload/engine.py:OffloadSimulator._decode_stepped":
        "waits on ROADMAP item 9 (offloaded GPU replicas in the fleet)",
    "offload/engine.py:OffloadSimulator._host_attention_time":
        "waits on ROADMAP item 9 (offloaded GPU replicas in the fleet)",
    "engine/backend.py:scale_op": ITEM_11,
    "engine/backend.py:SpecDecodeBackend._build_decode_ops": ITEM_11,
    "engine/backend.py:SpecDecodeBackend.weight_bytes": ITEM_11,
    "engine/backend.py:SpecDecodeBackend.label": ITEM_11,
    "engine/backend.py:PrefixCacheBackend.label": ITEM_11,
}

EXACT = "the per-step reference loop that the fast-forward is checked against"
TRACER = ("observability; the simulator that runs a node sets its tracer, a "
          "standalone node takes it here")
PROGRESS_OPTION = ("`repro cluster --progress` feature and its test seam; "
                   "its stderr line carries wall-clock rates")
SPEC = ("the request shape every planner entry takes; `tools/bench.py` sets "
        "`spec` on `saturation_rate`, `solve_grid` and `measure_fleet`")
RECORD = ("a report field filled from the node: `drained` after a drain "
          "(bench's fleet-churn drains), `price_usd` from "
          "`ReplicaSpec.price_usd` (bench sets it)")
ITEM_14 = ("waits on ROADMAP item 14 (every calibration constant tied to the "
           "targets it moves)")
ITEM_19 = ("waits on ROADMAP item 19 (`ReplicaSpec` builds every node and "
           "`BatchingSimulator` goes; `bench/layers.py` wraps the class)")
TESTED = ("only a unit test sets another value, and `tests/data/"
          "stream_pins.json` hashes streams built with it; retiring it "
          "re-records a bit pin")
EXEMPT_OPTIONS = {
    "cluster/node.py:ReplicaNode.__init__(exact)": EXACT,
    "cluster/shard.py:run_sharded(exact)": EXACT,
    "cluster/node.py:ReplicaNode.__init__(tracer)": TRACER,
    "cluster/shard.py:run_sharded(progress)": PROGRESS_OPTION,
    "cluster/shard.py:run_sharded(progress_every)": PROGRESS_OPTION,
    "cluster/simulator.py:ClusterSimulator.run(progress)": PROGRESS_OPTION,
    "cluster/simulator.py:ClusterSimulator.run(progress_every)":
        PROGRESS_OPTION,
    "cluster/shard.py:run_sharded(events)":
        "a failure or drain schedule on the sharded path; bench/ schedules "
        "events on `ClusterSimulator` (see `ShardMergeLog.on_event`)",
    "cluster/fluid.py:solve(spec)": SPEC,
    "optim/advisor.py:recommend_fleet(spec)": SPEC,
    "optim/advisor.py:size_fleet(seed)": "a seed",
    "cluster/metrics.py:NodeStats.__init__(drained)": RECORD,
    "cluster/metrics.py:NodeStats.__init__(price_usd)": RECORD,
    "engine/backend.py:HybridBackend.__init__(calibration)": ITEM_14,
    "engine/backend.py:NumaBackend.__init__(calibration)": ITEM_14,
    "numa/model.py:NumaModel.__init__(calibration)": ITEM_14,
    "numa/model.py:NumaCalibration.__init__(cache_hit_rate_resident)":
        ITEM_14,
    "numa/model.py:NumaCalibration.__init__(cache_mode_overhead)": ITEM_14,
    "numa/model.py:NumaCalibration.__init__(numa_aware_remote_fraction)":
        ITEM_14,
    "numa/model.py:NumaCalibration.__init__(parallel_overhead)": ITEM_14,
    "numa/model.py:NumaCalibration.__init__(bw_half_cores)": ITEM_14,
    "numa/model.py:NumaCalibration.__init__(snc_remote_bw_penalty)": ITEM_14,
    "numa/model.py:NumaCalibration.__init__(snc_remote_fraction)": ITEM_14,
    "offload/policy.py:OffloadCalibration.__init__(host_attention_bw)":
        ITEM_14,
    "offload/policy.py:OffloadCalibration.__init__(kv_gpu_capacity_fraction)":
        ITEM_14,
    "offload/policy.py:OffloadCalibration.__init__(overlap_efficiency)":
        ITEM_14,
    "offload/policy.py:OffloadCalibration.__init__(weight_residency_fraction)":
        ITEM_14,
    "offload/policy.py:hybrid_streamed_weight_bytes(calibration)": ITEM_14,
    "optim/hybrid.py:HybridPlanner.__init__(calibration)": ITEM_14,
    "engine/kvcache.py:KVCacheManager.__init__(block_tokens)": ITEM_1,
    "engine/kvcache.py:max_admissible_sequences(limit)": ITEM_1,
    "engine/backend.py:PrefixCacheBackend.__init__(inner)": ITEM_11,
    "engine/backend.py:SpecDecodeBackend.__init__(inner)": ITEM_11,
    "serving/scheduler.py:BatchingSimulator.__init__(backend)": ITEM_19,
    "serving/scheduler.py:BatchingSimulator.run_chunked(tracer)": ITEM_19,
    "serving/scheduler.py:BatchingSimulator.run_continuous(admission)":
        ITEM_19,
    "serving/scheduler.py:BatchingSimulator.run_continuous(exact)": ITEM_19,
    "serving/scheduler.py:BatchingSimulator.run_static(tracer)": ITEM_19,
    "workloads/tenancy.py:TenantWorkloadSpec.__init__(interaction_stages)":
        TESTED,
    "workloads/throttling.py:ThrottleConfig.__init__(max_app_requests)":
        TESTED,
}


def src_functions() -> dict:
    """``(path, first line) -> (key, lines)`` for every ``def`` in src.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line for a decorated function. The key is
    ``relative/path.py:Qual.name``.
    """
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    qualname = prefix + child.name
                    functions[(str(path), first)] = (
                        f"{relative}:{qualname}",
                        child.end_lineno - first + 1)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return functions


def defaults_of(function) -> dict:
    """``parameter -> default`` for *function*'s positional and
    keyword-only defaults."""
    code = function.__code__
    names = code.co_varnames[:code.co_argcount]
    defaults = function.__defaults__ or ()
    table = dict(zip(names[len(names) - len(defaults):], defaults))
    table.update(function.__kwdefaults__ or {})
    return table


class Factory:
    """The default of a dataclass field built by ``default_factory``."""

    def __init__(self, factory):
        self.factory = factory


def option_table(functions) -> dict:
    """``id(code) -> (key, function, defaults)`` for each ``(key,
    function)`` pair in *functions* that has a defaulted parameter.

    The function is kept so that its code object, and so the id, lives
    as long as the table.
    """
    return {id(function.__code__): (key, function, defaults)
            for key, function in functions
            if (defaults := defaults_of(function))}


def module_options(module, relative: str) -> dict:
    """:func:`option_table` over every function and method that *module*
    defines, keyed ``relative:Qual.name``.

    A class contributes the methods in its own ``__dict__``, which
    includes the ``__init__`` that ``dataclasses`` generates (a field
    built by ``default_factory`` gets a :class:`Factory` default).
    Closures are left out: their defaults bind loop variables, not
    options.
    """
    import inspect

    found = []
    factories = {}

    def visit(owner, prefix):
        for name, value in vars(owner).items():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if inspect.isclass(value):
                if value.__module__ == module.__name__ and \
                        value.__qualname__ == prefix + name:
                    visit(value, prefix + name + ".")
                continue
            value = inspect.unwrap(value) if callable(value) else value
            if inspect.isfunction(value) and \
                    value.__qualname__ == prefix + name and \
                    (prefix or value.__module__ == module.__name__):
                found.append((f"{relative}:{prefix}{name}", value))
        for field in getattr(owner, "__dataclass_fields__", {}).values():
            if field.default_factory is not dataclasses.MISSING:
                factories[owner.__init__, field.name] = Factory(
                    field.default_factory)

    visit(module, "")
    table = option_table(found)
    for _key, function, defaults in table.values():
        for name in defaults:
            defaults[name] = factories.get((function, name), defaults[name])
    return table


def src_options() -> dict:
    """:func:`module_options` over every ``src/repro`` module."""
    import importlib
    import pkgutil

    import repro

    table = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        relative = pathlib.Path(module.__file__).relative_to(SRC)
        table.update(module_options(module, relative.as_posix()))
    return table


def same(value, default) -> bool:
    """Whether a call passed *default*, or a value equal to it."""
    if isinstance(default, Factory):
        if value is dataclasses._HAS_DEFAULT_FACTORY:
            return True
        default = default.factory()
    if value is default:
        return True
    try:
        return bool(value == default)
    except Exception:  # an array-like compares elementwise
        return False


class Recorder:
    """The profile hook: collects the code of every Python call, and
    which defaulted parameters (from an :func:`option_table`) a call set
    to a value other than the default.

    Until :meth:`track` hands it the table, the hook keeps the arguments
    of every call into ``src/repro`` or into generated code (a
    dataclass's ``__init__``), so that calls made while the modules are
    imported (the platform and model registries) count too.

    Code objects are keyed by identity: two functions with the same
    name, body and first line in different files compare equal.
    """

    def __init__(self, options=None):
        self.codes = {}
        self.early = []
        self.options = self.pending = None
        self.varied = set()
        if options is not None:
            self.track(options)

    def track(self, options: dict) -> None:
        """Check calls against *options* from now on, and the calls kept
        so far."""
        self.options = dict(options)
        self.pending = {code: dict(defaults) for code, (_key, _function,
                                                         defaults)
                        in options.items()}
        for code, values in self.early:
            self._check(code, values)
        self.early = None

    def _check(self, code, values) -> None:
        pending = self.pending.get(id(code))
        if pending:
            for name, default in list(pending.items()):
                if not same(values[name], default):
                    del pending[name]
                    self.varied.add((self.options[id(code)][0], name))

    def __call__(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.codes[id(code)] = code
            if self.pending is not None:
                if self.pending.get(id(code)):
                    self._check(code, frame.f_locals)
            elif code.co_filename.startswith(SOURCES) or \
                    code.co_filename == "<string>":
                self.early.append((code, dict(frame.f_locals)))

    def calls(self) -> set:
        return {(code.co_filename, code.co_firstlineno)
                for code in self.codes.values()}

    def reached_options(self) -> set:
        """``(key, parameter)`` for every defaulted parameter of every
        function in the table that ran."""
        return {(key, name) for code, (key, _function, defaults)
                in self.options.items() if code in self.codes
                for name in defaults}

    @contextlib.contextmanager
    def recording(self):
        sys.setprofile(self)
        try:
            yield
        finally:
            sys.setprofile(None)


def hook_shard_workers(outbox: pathlib.Path, options: dict) -> None:
    """Record calls and varied options inside forked shard workers too.

    Each worker profiles itself and writes what it saw as JSON to a file
    in *outbox*, which :func:`main` reads once the stages are done.
    """
    import json

    from repro.cluster import shard

    worker_main = shard._worker_main

    def profiled_worker(worker, *args):
        child = Recorder(options)
        with child.recording():
            worker_main(worker, *args)
        with open(outbox / f"{os.getpid()}.json", "w") as handle:
            json.dump({"calls": sorted(child.calls()),
                       "options": sorted(child.reached_options()),
                       "varied": sorted(child.varied)}, handle)

    shard._worker_main = profiled_worker


def worker_records(outbox: pathlib.Path) -> tuple:
    """``(calls, reached options, varied options)`` from every worker."""
    import json

    calls, options, varied = set(), set(), set()
    for path in outbox.glob("*.json"):
        record = json.loads(path.read_text())
        calls |= {tuple(row) for row in record["calls"]}
        options |= {tuple(row) for row in record["options"]}
        varied |= {tuple(row) for row in record["varied"]}
    return calls, options, varied


def named_by_tools(functions: dict) -> set:
    """Functions that ``bench/`` or ``tools/`` import from ``repro``.

    The functions such a function calls by name count too
    (``clear_caches`` calls each layer's cache reset), one level deep.
    """
    import importlib
    import inspect
    import textwrap

    reached = set()
    sources = [(path.read_text(), None) for path in
               sorted((ROOT / "bench").glob("*.py"))
               + sorted((ROOT / "tools").glob("*.py"))]
    while sources:
        source, namespace = sources.pop()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                targets = [getattr(module, alias.name, None)
                           for alias in node.names]
            elif namespace and isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name):
                targets = [namespace.get(node.func.id)]
            else:
                continue
            for target in targets:
                code = getattr(target, "__code__", None)
                key = code and (code.co_filename, code.co_firstlineno)
                if key in functions and key not in reached:
                    reached.add(key)
                    sources.append((textwrap.dedent(inspect.getsource(
                        target)), target.__globals__ if namespace is None
                        else {}))
    return reached


def set_by_keyword() -> set:
    """``(callee name, keyword)`` for every call in ``bench/``,
    ``tools/`` and ``benchmarks/`` that passes an argument by keyword.

    The callee is known by its last name only: ``sim.run(dtype=...)``
    counts for every ``run`` that takes ``dtype``, and
    ``ClusterSimulator(events=...)`` for ``ClusterSimulator.__init__``.
    """
    found = set()
    for folder in ("bench", "tools", "benchmarks"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", None) or \
                        getattr(node.func, "attr", None)
                    found.update((callee, keyword.arg)
                                 for keyword in node.keywords
                                 if keyword.arg)
    return found


def callee_name(key: str) -> str:
    """The name a call uses for the function *key*: the class's for a
    constructor."""
    parts = key.split(":", 1)[1].split(".")
    if parts[-1] in ("__init__", "__new__") and len(parts) > 1:
        return parts[-2]
    return parts[-1]


def run_stages(outbox: pathlib.Path, options: dict) -> None:
    """Import and run every stage (the caller records the calls)."""
    sys.path.insert(0, str(ROOT / "tests"))
    from repro.experiments import run_all_experiments
    from test_cli_golden import CASES, run_case

    hook_shard_workers(outbox, options)
    sink = io.StringIO()
    argv, cwd = sys.argv, os.getcwd()
    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        run_all_experiments()
        os.chdir(scratch)
        try:
            for script in sorted((ROOT / "examples").glob("*.py")):
                sys.argv = [str(script)]
                runpy.run_path(str(script), run_name="__main__")
        finally:
            os.chdir(cwd)
            sys.argv = argv
        for name, argv_text in CASES.items():
            case_dir = pathlib.Path(scratch) / name
            case_dir.mkdir()
            run_case(argv_text, case_dir)


def exemption(key: str):
    """Why *key* may stay unreached, or ``None``."""
    name = key.split(":", 1)[1].rsplit(".", 1)[-1]
    if name.startswith("__") and name.endswith("__"):
        return "dunder"
    return EXEMPT.get(key)


def option_name(key: str, parameter: str) -> str:
    return f"{key}({parameter})"


def report() -> list:
    """The audit's report lines, and whether it found a fault."""
    functions = src_functions()
    recorder = Recorder()
    with tempfile.TemporaryDirectory() as outbox:
        with recorder.recording():
            options = src_options()
            recorder.track(options)
            run_stages(pathlib.Path(outbox), options)
        calls, reached_options, varied = worker_records(
            pathlib.Path(outbox))
    reached = recorder.calls() | calls | named_by_tools(functions)
    reached_options |= recorder.reached_options()
    varied |= recorder.varied
    keywords = set_by_keyword()
    unreached = sorted(
        (key, lines, pathlib.Path(path).relative_to(ROOT).as_posix(), first)
        for (path, first), (key, lines) in functions.items()
        if (path, first) not in reached)
    exempt = [row + (exemption(row[0]),) for row in unreached
              if exemption(row[0])]
    other = [row for row in unreached if not exemption(row[0])]
    total = sum(lines for _key, lines in functions.values())
    out = [f"{len(functions)} functions ({total} lines) under src/repro; "
             f"{len(unreached)} unreached, {len(exempt)} of them exempt",
             "", "exempt:"]
    out += [f"  {path}:{first}  {key.split(':', 1)[1]}  "
              f"({lines} lines) - {reason}"
              for key, lines, path, first, reason in exempt]
    out += ["", "unreached:"]
    out += [f"  {path}:{first}  {key.split(':', 1)[1]}  ({lines} lines)"
              for key, lines, path, first in other]
    stale = sorted(set(EXEMPT) - {row[0] for row in exempt})
    if stale:
        out += ["", "stale exemptions (reached or gone): "
                  + ", ".join(stale)]

    fixed = sorted(
        option_name(key, name) for key, name in reached_options
        if (key, name) not in varied
        and (callee_name(key), name) not in keywords)
    kept = [name for name in fixed if name in EXEMPT_OPTIONS]
    never = [name for name in fixed if name not in EXEMPT_OPTIONS]
    functions_with_options = {key for key, _name in reached_options}
    out += ["", f"{len(reached_options)} defaulted parameters in "
              f"{len(functions_with_options)} reached functions; "
              f"{len(fixed)} never varied, {len(kept)} of them exempt",
              "", "exempt options:"]
    out += [f"  {name} - {EXEMPT_OPTIONS[name]}" for name in kept]
    out += ["", "never varied:"]
    out += [f"  {name}" for name in never]
    stale_options = sorted(set(EXEMPT_OPTIONS) - set(kept))
    if stale_options:
        out += ["", "stale option exemptions (varied, unreached or "
                  "gone): " + ", ".join(stale_options)]
    return out, bool(other or stale or never or stale_options)


def documented() -> list:
    """The report lines in ``docs/reach.md``'s fenced block."""
    text = (ROOT / "docs" / "reach.md").read_text()
    block = text.split("\n## Report\n", 1)[1]
    return block.split("```\n", 2)[1].splitlines()


def main() -> int:
    lines, fault = report()
    print("\n".join(lines))
    if lines != documented():
        print("\nthe report differs from the block in docs/reach.md",
              file=sys.stderr)
        fault = True
    return 1 if fault else 0


if __name__ == "__main__":
    sys.exit(main())
