"""Hardware-cost analysis (paper footnote 1 and Section V-B).

The paper motivates CPU inference with cost: "using the listing price of
each processor as a proxy shows that Intel MAX 9468 is 3x cheaper than
NVIDIA H100-80GB", and notes a Grace-Hopper system would cost "~4x of the
SPR CPU and DDR5". This module encodes those listing-price proxies and
computes throughput-per-dollar, the figure of merit behind Key Finding #4's
practical punchline.

Prices are processor listing prices (USD, 2023-2024 era), the same proxy
the paper uses — not full-system TCO.
"""

import warnings
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.utils.validation import require_positive

if TYPE_CHECKING:  # hints only: the runner would load offload into fleets
    from repro.core.runner import RunResult

#: Listing-price proxies per platform name. The SPR:H100 ratio of ~1:3 and
#: the GH200:SPR ratio of ~4:1 anchor to the paper's statements.
LIST_PRICE_USD: Dict[str, float] = {
    "ICL-8352Y": 3_450.0,
    "SPR-Max-9468": 9_900.0,
    "A100-40GB": 15_000.0,
    "H100-80GB": 30_000.0,
    "GH200-96GB": 40_000.0,
}


def list_price(platform_name: str) -> float:
    """Listing-price proxy for *platform_name* (raises on unknown)."""
    if platform_name not in LIST_PRICE_USD:
        raise KeyError(f"no listing price recorded for {platform_name!r}; "
                       f"known: {sorted(LIST_PRICE_USD)}")
    return LIST_PRICE_USD[platform_name]


def median_list_price() -> float:
    """The median recorded listing price — the unknown-device stopgap."""
    prices = sorted(LIST_PRICE_USD.values())
    return prices[len(prices) // 2]


#: Platforms we already warned about pricing at the median, so a
#: million-request run warns once, not once per routing decision.
_WARNED_UNPRICED: Set[str] = set()


def price_rate(platform_name: str,
               override: Optional[float] = None) -> float:
    """Listing-price proxy with an explicit override and a loud fallback.

    *override* (a :class:`~repro.cluster.config.ReplicaSpec`
    ``price_usd`` or :class:`~repro.cluster.metrics.NodeStats`
    ``price_usd``) wins when set; otherwise the recorded listing price.
    Unknown platforms fall back to :func:`median_list_price` — but emit
    a one-time :class:`UserWarning` naming the platform, because a
    silently median-priced device skews every cost-aware routing
    decision and $/Mtok figure that touches it.
    """
    if override is not None:
        return override
    try:
        return list_price(platform_name)
    except KeyError:
        if platform_name not in _WARNED_UNPRICED:
            _WARNED_UNPRICED.add(platform_name)
            warnings.warn(
                f"no listing price recorded for platform {platform_name!r}; "
                f"pricing it at the median (${median_list_price():,.0f}). "
                "Set ReplicaSpec(price_usd=...) to pin the real price.",
                UserWarning, stacklevel=2)
        return median_list_price()


def throughput_per_kilodollar(result: "RunResult") -> float:
    """Generated tokens per second per 1000 USD of processor list price."""
    price = list_price(result.platform_name)
    return result.e2e_throughput / (price / 1000.0)


def cost_efficiency_ratio(cpu_result: "RunResult",
                          gpu_result: "RunResult") -> float:
    """CPU-over-GPU advantage in throughput/$ (>1 favors the CPU)."""
    cpu = throughput_per_kilodollar(cpu_result)
    gpu = throughput_per_kilodollar(gpu_result)
    require_positive(gpu, "gpu throughput per dollar")
    return cpu / gpu


def price_ratio(platform_a: str, platform_b: str) -> float:
    """List-price ratio a/b (paper: SPR is ~1/3 of H100)."""
    return list_price(platform_a) / list_price(platform_b)
