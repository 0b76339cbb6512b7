"""Lazy package exports: a package imports a member module on first use.

Every ``repro`` package except :mod:`repro.experiments` lists its public
names here instead of importing them eagerly, so that a run imports only
the modules it uses (``from repro.cluster import run_sharded`` loads the
shard runner and what it imports, not the fluid solver or the fairness
reports)::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        ".node": ("ReplicaNode",),
        "repro.engine.backend": ("TPConfig",),
    })

Each name is listed once, under the module that defines it (relative to
the package, or absolute). The returned ``__getattr__`` (PEP 562)
imports that module on the first lookup of a name and caches the value
in the package's globals, so later lookups are plain attribute reads.
This module imports nothing from ``repro``.
"""

import importlib


def lazy_exports(namespace, table):
    """``(__all__, __getattr__, __dir__)`` for the package whose globals
    are *namespace*, exporting *table* (``{module: names}``)."""
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            importlib.import_module(module, package), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
