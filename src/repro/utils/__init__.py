"""Shared utilities: unit constants, validation helpers, and table formatting.

These helpers are deliberately dependency-free so every other subpackage can
import them without cycles.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".formatting": ("format_row", "format_table"),
    ".stats": ("mean", "percentile"),
    ".units": ("GB", "GHZ", "GIB", "KB", "KIB", "MB", "MIB", "MS", "TB",
               "TFLOPS", "US", "bytes_to_gb", "gb_per_s"),
    ".validation": ("require_in", "require_non_negative", "require_positive"),
})
