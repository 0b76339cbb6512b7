"""Cross-platform/configuration comparison utilities.

Most of the paper's figures are *normalized*: Fig. 8 normalizes SPR to ICL,
Fig. 13 normalizes every configuration to quad_cache, Fig. 17/19/20/21
normalize GPUs to the SPR CPU. These helpers pair up sweep rows by
coordinates and produce the normalized series.
"""

import dataclasses
from typing import Dict, List, Sequence

from repro.core.metrics import normalize_summary
from repro.core.runner import SweepRow, filter_rows


@dataclasses.dataclass(frozen=True)
class PairedComparison:
    """One (model, batch) cell comparing a platform against a baseline.

    Attributes:
        model / batch_size: Cell coordinates.
        baseline_platform / target_platform: The two platforms compared.
        normalized: target metric / baseline metric, per metric key.
    """

    model: str
    batch_size: int
    baseline_platform: str
    target_platform: str
    normalized: Dict[str, float]

    @property
    def e2e_latency_reduction_pct(self) -> float:
        """Percent E2E latency reduction of target vs baseline."""
        return (1.0 - self.normalized["e2e_s"]) * 100.0


def compare_platforms(rows: Sequence[SweepRow], baseline_platform: str,
                      target_platform: str) -> List[PairedComparison]:
    """Pair rows of two platforms on (model, batch) and normalize target."""
    comparisons: List[PairedComparison] = []
    baseline_rows = [r for r in rows if r.platform == baseline_platform]
    for base in baseline_rows:
        matches = filter_rows(rows, model=base.model,
                              platform=target_platform,
                              batch_size=base.batch_size)
        if not matches:
            continue
        target = matches[0]
        comparisons.append(PairedComparison(
            model=base.model,
            batch_size=base.batch_size,
            baseline_platform=baseline_platform,
            target_platform=target_platform,
            normalized=normalize_summary(target.metrics, base.metrics),
        ))
    return comparisons


def per_model_speedup_range(comparisons: Sequence[PairedComparison]
                            ) -> Dict[str, float]:
    """Average end-to-end latency speedup per model across batch sizes.

    Returns ``{model: mean speedup}``; used for the paper's "in the range
    of X to Y" statements, which range over per-model averages.
    """
    by_model: Dict[str, List[float]] = {}
    for comp in comparisons:
        by_model.setdefault(comp.model, []).append(
            1.0 / comp.normalized["e2e_s"])
    return {model: sum(vals) / len(vals) for model, vals in by_model.items()}


__all__ = [
    "PairedComparison",
    "compare_platforms",
    "per_model_speedup_range",
]
