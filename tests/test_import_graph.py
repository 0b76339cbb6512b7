"""The ``repro`` import graph is a DAG, and modules import at the top.

Every module under ``src/repro`` is parsed with :mod:`ast` and each
``import`` statement that names a ``repro`` module becomes an edge of
the graph, wherever it sits: a deferred import in a function body is
still an edge, only a later one. ``importlib.import_module`` calls with
a constant ``repro`` name count the same way. Imports under
``if TYPE_CHECKING:`` carry hints only and are not edges.

Targets resolve to modules: relative imports against the importing
module's package, ``from pkg import sub`` to the submodule, and
``from pkg import Name`` through the package's
:func:`repro.lazy.lazy_exports` table to the module that defines it,
which is what the package's ``__getattr__`` imports. The packages on an
import's dotted path are not edges: their ``__init__`` modules export
lazily, and :mod:`repro.experiments`, whose ``__init__`` registers the
experiments eagerly, is only ever imported by its own members and the
CLI.

Two rules follow, both from the architecture notes in
``docs/architecture.md`` ("Imports"): the graph has no cycle, and no
function body imports a ``repro`` module, except the command handlers of
:mod:`repro.cli`, which defer them to keep start-up cheap.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Modules whose functions may import ``repro`` modules.
DEFERRED_IMPORTS_ALLOWED = {"repro.cli"}


def _modules():
    """``{module name: (path, is_package)}`` for every module of ``repro``."""
    modules = {}
    for directory, _, files in os.walk(os.path.join(SRC, "repro")):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            parts = os.path.relpath(path, SRC)[:-len(".py")].split(os.sep)
            is_package = parts[-1] == "__init__"
            if is_package:
                parts.pop()
            modules[".".join(parts)] = (path, is_package)
    return modules


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING")


def _lazy_table(tree, package):
    """``{name: defining module}`` from a package's ``lazy_exports`` call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            table = ast.literal_eval(node.args[1])
            return {name: _absolute(module, package)
                    for module, names in table.items() for name in names}
    return {}


def _absolute(module, package, level=None):
    """Resolve a relative module spelling against *package*."""
    if level is None:
        level = len(module) - len(module.lstrip("."))
        module = module[level:]
    if not level:
        return module
    base = package.split(".")
    base = base[:len(base) - (level - 1)]
    return ".".join(base + ([module] if module else []))


class _Imports(ast.NodeVisitor):
    """Collects ``(module, level, names, line, function depth)`` per import."""

    def __init__(self):
        self.found = []
        self.depth = 0

    def visit_If(self, node):
        if not _is_type_checking(node.test):
            self.generic_visit(node)
            return
        for child in node.orelse:
            self.visit(child)

    def visit_FunctionDef(self, node):
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        for alias in node.names:
            self.found.append((alias.name, 0, (), node.lineno, self.depth))

    def visit_ImportFrom(self, node):
        names = tuple(alias.name for alias in node.names)
        self.found.append((node.module or "", node.level, names,
                           node.lineno, self.depth))

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if (name == "import_module" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            self.found.append((node.args[0].value, 0, (), node.lineno,
                               self.depth))
        self.generic_visit(node)


def build_graph():
    """``(edges, deferred)`` of the ``repro`` import graph.

    *edges* maps each module to the ``repro`` modules it imports;
    *deferred* lists ``(module, line, target)`` for every such import
    made inside a function body.
    """
    modules = _modules()
    trees = {name: ast.parse(open(path).read(), path)
             for name, (path, _) in modules.items()}
    lazy = {name: _lazy_table(trees[name], name)
            for name, (_, is_package) in modules.items() if is_package}
    edges = {name: set() for name in modules}
    deferred = []
    for name, tree in trees.items():
        package = name if modules[name][1] else name.rpartition(".")[0]
        visitor = _Imports()
        visitor.visit(tree)
        for spelling, level, names, lineno, depth in visitor.found:
            target = _absolute(spelling, package, level)
            if target != "repro" and not target.startswith("repro."):
                continue
            targets = set()
            for imported in names:
                if f"{target}.{imported}" in modules:
                    targets.add(f"{target}.{imported}")
                elif imported in lazy.get(target, {}):
                    targets.add(lazy[target][imported])
            if not targets:
                targets.add(target)
            assert targets <= modules.keys(), (name, lineno, targets)
            edges[name] |= targets
            if depth:
                deferred.extend((name, lineno, t) for t in sorted(targets))
    return edges, deferred


def find_cycles(edges):
    """One cycle, as a module list, per cyclic strongly connected set."""
    index, low, stack, on_stack, components = {}, {}, [], set(), []

    def connect(node):
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(edges[node]):
            if succ not in index:
                connect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component = set()
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.add(member)
                if member == node:
                    break
            if len(component) > 1 or node in edges[node]:
                components.append(component)

    for node in sorted(edges):
        if node not in index:
            connect(node)
    return [_cycle_in(component, edges) for component in components]


def _cycle_in(component, edges):
    """A closed path through *component* from its first module."""
    start = min(component)
    path, seen = [start], {start}
    while True:
        succ = min(s for s in edges[path[-1]] if s in component)
        if succ in seen:
            return path[path.index(succ):] + [succ]
        path.append(succ)
        seen.add(succ)


def test_graph_covers_the_package():
    edges, _ = build_graph()
    assert "repro.engine.backend" in edges["repro.offload.engine"]
    assert "repro.cluster.node" in edges["repro.serving.scheduler"]
    assert "repro.cluster.config" in edges["repro.experiments.ext_fleetmix"]


def test_import_graph_is_acyclic():
    edges, _ = build_graph()
    cycles = find_cycles(edges)
    assert not cycles, "import cycles:\n" + "\n".join(
        " -> ".join(cycle) for cycle in cycles)


def test_only_cli_handlers_defer_imports():
    _, deferred = build_graph()
    stray = [f"{module}:{line} imports {target}"
             for module, line, target in deferred
             if module not in DEFERRED_IMPORTS_ALLOWED]
    assert not stray, "in-function repro imports:\n" + "\n".join(stray)


def test_cycle_finder_reports_a_closed_path():
    edges = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}, "e": {"e"}}
    assert find_cycles(edges) == [["a", "b", "c", "a"], ["e", "e"]]
    assert find_cycles({"a": {"b"}, "b": set()}) == []
