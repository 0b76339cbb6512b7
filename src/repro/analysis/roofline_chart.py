"""Text-mode roofline charts for terminals and logs.

Renders the classic log-log roofline (attainable FLOP/s vs arithmetic
intensity) as ASCII, with workload phases plotted as labeled points —
the visual the paper's compute-bound/memory-bound argument draws on,
without a plotting dependency.
"""

import math
from typing import List, Sequence, Tuple

from repro.engine.results import PhaseStats
from repro.gemm.roofline import attainable_flops
from repro.hardware.datatypes import DType
from repro.hardware.platform import Platform
from repro.utils.validation import require_positive

CHART_WIDTH = 64
CHART_HEIGHT = 18
#: The paper's dtype; the roofs are drawn at its peak.
CHART_DTYPE = DType.BF16


def ridge_point(platform: Platform) -> float:
    """Arithmetic intensity (FLOPs/byte) where the two roofs meet."""
    bw = platform.peak_memory_bandwidth * platform.stream_efficiency
    return platform.peak_flops(CHART_DTYPE) / bw


def phase_point(phase: PhaseStats) -> Tuple[float, float]:
    """(intensity, achieved FLOP/s) of a simulated phase."""
    require_positive(phase.time_s, "phase time")
    intensity = phase.arithmetic_intensity
    achieved = phase.flops / phase.time_s
    return intensity, achieved


def render_roofline(platform: Platform,
                    points: Sequence[Tuple[str, float, float]]) -> str:
    """ASCII roofline with labeled (name, intensity, flops) points.

    X axis: log10 arithmetic intensity; Y axis: log10 FLOP/s. The roof is
    drawn with ``*``; points use their label's first character.
    """
    peak = platform.peak_flops(CHART_DTYPE)
    width, height = CHART_WIDTH, CHART_HEIGHT
    bw = platform.peak_memory_bandwidth * platform.stream_efficiency

    x_min = math.log10(0.1)
    x_max = math.log10(max(1e4, ridge_point(platform) * 100))
    y_max = math.log10(peak * 2)
    y_min = y_max - 5  # five decades of dynamic range

    def to_col(intensity: float) -> int:
        x = math.log10(max(intensity, 10 ** x_min))
        return int((x - x_min) / (x_max - x_min) * (width - 1))

    def to_row(flops: float) -> int:
        y = math.log10(max(flops, 10 ** y_min))
        y = min(y, y_max)
        return int((y_max - y) / (y_max - y_min) * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    for col in range(width):
        x = 10 ** (x_min + (x_max - x_min) * col / (width - 1))
        roof = attainable_flops(x, peak, bw)
        row = to_row(roof)
        if 0 <= row < height:
            grid[row][col] = "*"

    legend: List[str] = []
    for name, intensity, flops in points:
        marker = name[0].upper()
        row, col = to_row(flops), to_col(intensity)
        if 0 <= row < height and 0 <= col < width:
            grid[row][col] = marker
        legend.append(f"  {marker} = {name} "
                      f"({intensity:.1f} FLOP/B, {flops / 1e12:.1f} TFLOP/s)")

    lines = [f"roofline: {platform.name} "
             f"(peak {peak / 1e12:.0f} TFLOP/s, "
             f"bw {bw / 1e9:.0f} GB/s, ridge "
             f"{ridge_point(platform):.0f} FLOP/B)"]
    lines.extend("".join(row) for row in grid)
    lines.append("-" * width)
    lines.append(f"log10 intensity: {x_min:.0f} .. {x_max:.0f}  "
                 "(roof drawn with *)")
    lines.extend(legend)
    return "\n".join(lines)


def roofline_for_run(platform: Platform, prefill: PhaseStats,
                     decode: PhaseStats) -> str:
    """Roofline with a run's prefill and decode phases plotted."""
    points = []
    for phase in (prefill, decode):
        if phase.time_s > 0:
            intensity, achieved = phase_point(phase)
            points.append((phase.name, intensity, achieved))
    return render_roofline(platform, points)
