"""Performance-counter estimation substrate (perf/VTune substitute)."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".collector": ("CounterModel",),
    ".counters": ("BOOKKEEPING_FRACTION", "CounterEstimates",
                  "FLOPS_PER_INSTRUCTION", "LINE_BYTES", "OPERAND_LOAD_FLOPS"),
})
