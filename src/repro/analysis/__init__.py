"""Characterization analysis tooling: cost, bottlenecks, rooflines."""

from repro.analysis.bottleneck import (
    BottleneckAnalyzer,
    OpAttribution,
    PhaseAttribution,
)
from repro.analysis.energy import (
    OFFLOAD_HOST_WATTS,
    TDP_WATTS,
    request_energy_joules,
    tdp,
    tokens_per_joule,
)
from repro.analysis.sensitivity import (
    SensitivityPoint,
    SensitivityResult,
    all_sensitivities,
    pcie_efficiency_sensitivity,
    stream_efficiency_sensitivity,
    zigzag_slope_sensitivity,
)
from repro.analysis.cost import (
    LIST_PRICE_USD,
    cost_efficiency_ratio,
    list_price,
    price_ratio,
    throughput_per_kilodollar,
)
from repro.analysis.scaling_laws import (
    BatchScalingFit,
    fit_batch_scaling,
    measure_batch_scaling,
)
from repro.analysis.roofline_chart import (
    phase_point,
    render_roofline,
    ridge_point,
    roofline_for_run,
)

__all__ = [
    "BatchScalingFit",
    "BottleneckAnalyzer",
    "fit_batch_scaling",
    "measure_batch_scaling",
    "OFFLOAD_HOST_WATTS",
    "SensitivityPoint",
    "SensitivityResult",
    "TDP_WATTS",
    "all_sensitivities",
    "pcie_efficiency_sensitivity",
    "request_energy_joules",
    "stream_efficiency_sensitivity",
    "tdp",
    "tokens_per_joule",
    "zigzag_slope_sensitivity",
    "LIST_PRICE_USD",
    "OpAttribution",
    "PhaseAttribution",
    "cost_efficiency_ratio",
    "list_price",
    "phase_point",
    "price_ratio",
    "render_roofline",
    "ridge_point",
    "roofline_for_run",
    "throughput_per_kilodollar",
]
