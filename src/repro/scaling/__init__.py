"""Core-count sweep substrate (the scaling model is ``repro.numa.model``)."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".cores": ("EVALUATED_CORE_COUNTS",),
})
