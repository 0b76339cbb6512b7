"""Serving substrate: arrivals, batching policies, SLO analysis."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".arrivals": ("ArrivingRequest", "CompletedRequest", "ServingReport",
                  "bursty_arrivals", "merge_arrivals", "poisson_arrivals"),
    ".scheduler": ("BatchingSimulator",),
    ".multitenancy": ("MultiTenantSimulator", "TenantSlowdown",
                      "tenancy_sweep"),
    ".prefix_cache": ("PrefixCacheEstimate", "PrefixCacheModel"),
    ".slo": ("SLO", "attainment", "goodput", "max_sustainable_rate"),
})
