"""Unit constants and conversion helpers.

Conventions used throughout the library:

* sizes are tracked in **bytes** (int or float),
* bandwidths in **bytes per second**,
* compute rates in **FLOP per second**,
* times in **seconds**,
* frequencies in **Hz**.

Decimal (SI) prefixes are used for bandwidth and compute (matching vendor
datasheets such as "588 GB/s" or "206.4 TFLOPS"); binary prefixes are
provided for capacity when needed.
"""

# Decimal size units (used by datasheets: "80 GB" GPU memory, etc.).
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

# Binary size units (used for cache sizes: "48 KB" L1, "105 MB" L3, ...).
KIB = 1_024
MIB = 1_024 ** 2
GIB = 1_024 ** 3

# Time units, expressed in seconds.
MS = 1e-3
US = 1e-6
NS = 1e-9

# Rates.
TFLOPS = 1e12
GHZ = 1e9


def gb_per_s(value: float) -> float:
    """Convert a bandwidth in GB/s (decimal) to bytes/second."""
    return value * GB


def bytes_to_gb(value: float) -> float:
    """Convert bytes to decimal gigabytes."""
    return value / GB

