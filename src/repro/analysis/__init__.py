"""Characterization analysis tooling: cost, bottlenecks, rooflines."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".bottleneck": ("BottleneckAnalyzer", "OpAttribution", "PhaseAttribution"),
    ".energy": ("OFFLOAD_HOST_WATTS", "TDP_WATTS", "request_energy_joules",
                "tdp", "tokens_per_joule"),
    ".sensitivity": ("SensitivityPoint", "SensitivityResult",
                     "all_sensitivities", "pcie_efficiency_sensitivity",
                     "stream_efficiency_sensitivity",
                     "zigzag_slope_sensitivity"),
    ".cost": ("LIST_PRICE_USD", "cost_efficiency_ratio", "list_price",
              "price_ratio", "throughput_per_kilodollar"),
    ".scaling_laws": ("BatchScalingFit", "fit_batch_scaling",
                      "measure_batch_scaling"),
    ".roofline_chart": ("phase_point", "render_roofline", "ridge_point",
                        "roofline_for_run"),
})
