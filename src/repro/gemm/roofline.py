"""Roofline primitives: compute time, memory time, attainable throughput.

The simulator prices every operator as::

    time = max(compute_time, memory_time) + launch_overhead

i.e. perfect overlap of compute with memory up to whichever resource
saturates — the standard roofline composition. The paper's own analysis is
roofline-shaped ("prefill is compute-bound", "decode is memory-bound"), so
this is the faithful abstraction level.
"""

from repro.utils.validation import require_non_negative, require_positive


def compute_time(flops: float, peak_flops: float, efficiency: float = 1.0) -> float:
    """Seconds to execute *flops* at ``peak_flops * efficiency``."""
    require_non_negative(flops, "flops")
    require_positive(peak_flops, "peak_flops")
    if not 0 < efficiency <= 1:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    return flops / (peak_flops * efficiency)


def memory_time(nbytes: float, bandwidth: float) -> float:
    """Seconds to stream *nbytes* at *bandwidth* bytes/s."""
    require_non_negative(nbytes, "nbytes")
    require_positive(bandwidth, "bandwidth")
    return nbytes / bandwidth


def op_time(flops: float, nbytes: float, peak_flops: float, bandwidth: float,
            efficiency: float = 1.0, overhead: float = 0.0) -> float:
    """Roofline time for one operator: slower of compute and memory, plus
    fixed *overhead* (kernel launch / framework dispatch)."""
    require_non_negative(overhead, "overhead")
    times = []
    if flops > 0:
        times.append(compute_time(flops, peak_flops, efficiency))
    if nbytes > 0:
        times.append(memory_time(nbytes, bandwidth))
    busy = max(times) if times else 0.0
    return busy + overhead


def attainable_flops(intensity: float, peak_flops: float, bandwidth: float) -> float:
    """Classic roofline: attainable FLOP/s at a given arithmetic intensity.

    ``min(peak, intensity * bandwidth)`` — the ridge point sits at
    ``peak / bandwidth`` FLOPs per byte.
    """
    require_non_negative(intensity, "intensity")
    require_positive(peak_flops, "peak_flops")
    require_positive(bandwidth, "bandwidth")
    return min(peak_flops, intensity * bandwidth)
