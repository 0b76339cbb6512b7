"""Fig. 13 — normalized metrics across the four SPR NUMA configurations.

Every metric is averaged across all evaluated LLMs and batch sizes 1-32,
then normalized to ``quad_cache``. Paper conclusion (Key Finding #2):
quad beats snc, flat beats cache, so quad_flat is best.
"""

from typing import Dict, List

from repro.core.metrics import ALL_METRICS, METRIC_LABELS, average_summaries
from repro.core.report import ExperimentReport
from repro.core.runner import CharacterizationSweep
from repro.engine.backend import NumaBackend
from repro.engine.request import EVALUATED_BATCH_SIZES
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import evaluated_models
from repro.numa.modes import EVALUATED_CONFIGS


@register("fig13")
def run() -> ExperimentReport:
    """Average metrics per NUMA config, normalized to quad_cache."""
    spr = get_platform("spr")
    models = evaluated_models()
    averages: Dict[str, Dict[str, float]] = {}
    for config in EVALUATED_CONFIGS:
        sweep = CharacterizationSweep(
            [spr], models, EVALUATED_BATCH_SIZES,
            backend=NumaBackend(numa=config))
        rows = sweep.run()
        averages[config.label] = average_summaries(
            [row.metrics for row in rows])

    baseline = averages["quad_cache"]
    table: List[list] = []
    for label, avg in averages.items():
        table.append([label] + [avg[m] / baseline[m] for m in ALL_METRICS])

    e2e = {label: avg["e2e_s"] for label, avg in averages.items()}
    best = min(e2e, key=e2e.get)
    notes = [
        f"best configuration by E2E latency: {best} (paper: quad_flat)",
        "quad beats snc (naive allocation makes ~75% of SNC accesses "
        "sub-node-remote); flat beats cache (no tag/fill overhead, "
        "explicit HBM use)",
    ]
    return ExperimentReport(
        experiment_id="fig13",
        title="NUMA configurations (normalized to quad_cache)",
        headers=["config"] + [METRIC_LABELS[m] for m in ALL_METRICS],
        rows=table,
        notes=notes,
    )
