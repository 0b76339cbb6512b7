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
``docs/reach.md`` holds this report at the current revision.

Usage::

    PYTHONPATH=src python tools/reach.py    # or: make reach (~20 s)
"""

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

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
    "engine/backend.py:ExecutionBackend.signature": ABSTRACT,
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
    "numa/topology.py:build_nodes":
        "waits on ROADMAP item 7 (NUMA-domain replicas)",
    "numa/topology.py:nodes_per_socket":
        "waits on ROADMAP item 7 (NUMA-domain replicas)",
    "offload/engine.py:OffloadSimulator._decode_stepped":
        "waits on ROADMAP item 9 (offloaded GPU replicas in the fleet)",
    "offload/engine.py:OffloadSimulator._host_attention_time":
        "waits on ROADMAP item 9 (offloaded GPU replicas in the fleet)",
    "engine/backend.py:scale_op": ITEM_11,
    "engine/backend.py:SpecDecodeBackend._build_decode_ops": ITEM_11,
    "engine/backend.py:SpecDecodeBackend.weight_bytes": ITEM_11,
    "engine/backend.py:SpecDecodeBackend.signature": ITEM_11,
    "engine/backend.py:SpecDecodeBackend.label": ITEM_11,
    "engine/backend.py:PrefixCacheBackend.signature": ITEM_11,
    "engine/backend.py:PrefixCacheBackend.label": ITEM_11,
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


class Recorder:
    """The profile hook: collects the code of every Python call.

    Code objects are keyed by identity: two functions with the same
    name, body and first line in different files compare equal.
    """

    def __init__(self):
        self.codes = {}

    def __call__(self, frame, event, arg):
        if event == "call":
            self.codes[id(frame.f_code)] = frame.f_code

    def calls(self) -> set:
        return {(code.co_filename, code.co_firstlineno)
                for code in self.codes.values()}

    @contextlib.contextmanager
    def recording(self):
        sys.setprofile(self)
        try:
            yield
        finally:
            sys.setprofile(None)


def hook_shard_workers(outbox: pathlib.Path) -> None:
    """Record calls inside forked shard workers too.

    Each worker profiles itself and writes ``path:line`` lines to a file
    in *outbox*, which :func:`main` reads once the stages are done.
    """
    from repro.cluster import shard

    worker_main = shard._worker_main

    def profiled_worker(worker, *args):
        child = Recorder()
        with child.recording():
            worker_main(worker, *args)
        with open(outbox / f"{os.getpid()}.txt", "w") as handle:
            handle.writelines(f"{path}:{line}\n"
                              for path, line in child.calls())

    shard._worker_main = profiled_worker


def worker_calls(outbox: pathlib.Path) -> set:
    calls = set()
    for path in outbox.glob("*.txt"):
        for row in path.read_text().splitlines():
            filename, line = row.rsplit(":", 1)
            calls.add((filename, int(line)))
    return calls


def named_by_tools(functions: dict) -> set:
    """Functions that ``bench/`` or ``tools/`` import from ``repro``.

    Imports inside such a function count too (``clear_caches`` imports
    each layer's cache reset where it calls it).
    """
    import importlib
    import inspect
    import textwrap

    reached = set()
    sources = [path.read_text() for path in
               sorted((ROOT / "bench").glob("*.py"))
               + sorted((ROOT / "tools").glob("*.py"))]
    while sources:
        for node in ast.walk(ast.parse(sources.pop())):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                target = getattr(module, alias.name, None)
                code = getattr(target, "__code__", None)
                key = code and (code.co_filename, code.co_firstlineno)
                if key in functions and key not in reached:
                    reached.add(key)
                    sources.append(textwrap.dedent(inspect.getsource(target)))
    return reached


def run_stages(outbox: pathlib.Path) -> None:
    """Import and run every stage (the caller records the calls)."""
    sys.path.insert(0, str(ROOT / "tests"))
    from repro.experiments import run_all_experiments
    from test_cli_golden import CASES, run_case

    hook_shard_workers(outbox)
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


def main() -> int:
    functions = src_functions()
    recorder = Recorder()
    with tempfile.TemporaryDirectory() as outbox:
        with recorder.recording():
            run_stages(pathlib.Path(outbox))
        reached = recorder.calls() | worker_calls(pathlib.Path(outbox))
    reached |= named_by_tools(functions)
    unreached = sorted(
        (key, lines, pathlib.Path(path).relative_to(ROOT).as_posix(), first)
        for (path, first), (key, lines) in functions.items()
        if (path, first) not in reached)
    exempt = [row + (exemption(row[0]),) for row in unreached
              if exemption(row[0])]
    other = [row for row in unreached if not exemption(row[0])]
    total = sum(lines for _key, lines in functions.values())
    print(f"{len(functions)} functions ({total} lines) under src/repro; "
          f"{len(unreached)} unreached, {len(exempt)} of them exempt")
    print("\nexempt:")
    for key, lines, path, first, reason in exempt:
        print(f"  {path}:{first}  {key.split(':', 1)[1]}  "
              f"({lines} lines) - {reason}")
    print("\nunreached:")
    for key, lines, path, first in other:
        print(f"  {path}:{first}  {key.split(':', 1)[1]}  ({lines} lines)")
    stale = sorted(set(EXEMPT) - {row[0] for row in exempt})
    if stale:
        print("\nstale exemptions (reached or gone): " + ", ".join(stale))
    return 1 if other or stale else 0


if __name__ == "__main__":
    sys.exit(main())
