"""Speculative-decoding extension (paper ref [37], SpecInfer)."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.engine.backend": ("SpecDecodeConfig",),
    ".model": ("SpecDecodeEstimate", "SpeculativeDecoder"),
})
