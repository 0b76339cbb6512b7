"""Serving substrate: arrivals, batching policies, SLO analysis."""

from repro.serving.arrivals import (
    ArrivingRequest,
    bursty_arrivals,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serving.scheduler import (
    BatchingSimulator,
    CompletedRequest,
    ServingReport,
)
from repro.serving.multitenancy import (
    MultiTenantSimulator,
    TenantSlowdown,
    tenancy_sweep,
)
from repro.serving.prefix_cache import PrefixCacheEstimate, PrefixCacheModel
from repro.serving.slo import SLO, attainment, goodput, max_sustainable_rate

__all__ = [
    "ArrivingRequest",
    "BatchingSimulator",
    "CompletedRequest",
    "MultiTenantSimulator",
    "PrefixCacheEstimate",
    "PrefixCacheModel",
    "SLO",
    "TenantSlowdown",
    "tenancy_sweep",
    "ServingReport",
    "attainment",
    "goodput",
    "max_sustainable_rate",
    "bursty_arrivals",
    "merge_arrivals",
    "poisson_arrivals",
]
