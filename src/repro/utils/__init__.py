"""Shared utilities: unit constants, validation helpers, and table formatting.

These helpers are deliberately dependency-free so every other subpackage can
import them without cycles.
"""

from repro.utils.formatting import format_row, format_table
from repro.utils.stats import mean, percentile
from repro.utils.units import (
    GB,
    GHZ,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    MS,
    TB,
    TFLOPS,
    US,
    bytes_to_gb,
    gb_per_s,
)
from repro.utils.validation import (
    require_in,
    require_non_negative,
    require_positive,
)

__all__ = [
    "GB",
    "GHZ",
    "GIB",
    "KB",
    "KIB",
    "MB",
    "MIB",
    "MS",
    "TB",
    "TFLOPS",
    "US",
    "bytes_to_gb",
    "gb_per_s",
    "format_row",
    "format_table",
    "mean",
    "percentile",
    "require_in",
    "require_non_negative",
    "require_positive",
]
