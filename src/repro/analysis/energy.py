"""Energy analysis: tokens per joule from processor TDP proxies.

A companion to the listing-price analysis: data centers pay for power as
well as silicon, and adjacent characterization work (the paper cites
power-management studies, ref [43]) ranks platforms on energy per token.
The model charges the processor's TDP for the duration of the request —
a deliberate upper bound on processor energy (inference keeps the part
near its power limit), using public TDP figures.

For offloaded GPU runs the *host* participates too (CPU attention, page
staging), so a host-power share is added while data loading dominates.
"""

from typing import Dict

from repro.core.runner import RunResult, is_offloaded
from repro.utils.validation import require_positive

#: Public TDP figures in watts.
TDP_WATTS: Dict[str, float] = {
    "ICL-8352Y": 205.0,
    "SPR-Max-9468": 350.0,
    "A100-40GB": 250.0,    # PCIe form factor
    "H100-80GB": 350.0,    # PCIe form factor
    "GH200-96GB": 700.0,   # superchip module
}

#: Host-CPU power charged to offloaded GPU runs (staging + attention).
OFFLOAD_HOST_WATTS = 150.0


def tdp(platform_name: str) -> float:
    """TDP for *platform_name* (raises on unknown)."""
    if platform_name not in TDP_WATTS:
        raise KeyError(f"no TDP recorded for {platform_name!r}; known: "
                       f"{sorted(TDP_WATTS)}")
    return TDP_WATTS[platform_name]


def request_energy_joules(result: RunResult) -> float:
    """Processor energy for one simulated request (TDP x duration)."""
    watts = tdp(result.platform_name)
    if is_offloaded(result):
        watts += OFFLOAD_HOST_WATTS
    return watts * result.e2e_s


def tokens_per_joule(result: RunResult) -> float:
    """Generated tokens per joule of processor energy."""
    energy = request_energy_joules(result)
    require_positive(energy, "energy")
    return result.request.total_generated_tokens / energy
