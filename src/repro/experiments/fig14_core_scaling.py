"""Fig. 14 — normalized metrics across core counts (12/24/48/96).

Metrics averaged across all evaluated LLMs and batch sizes, normalized to
12 cores. Paper anchors: 48 cores give a 59.8% E2E latency reduction,
65.9% prefill and 54.6% decode reductions, 2.2x prefill and 1.7x decode
throughput; 96 cores regress due to UPI traffic (Key Finding #3).
"""

from typing import Dict, List

from repro.core.metrics import ALL_METRICS, METRIC_LABELS, average_summaries
from repro.core.report import ExperimentReport
from repro.core.runner import CharacterizationSweep
from repro.engine.request import EVALUATED_BATCH_SIZES
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import evaluated_models
from repro.scaling.cores import EVALUATED_CORE_COUNTS


@register("fig14")
def run() -> ExperimentReport:
    """Average metrics per core count, normalized to 12 cores."""
    spr = get_platform("spr")
    models = evaluated_models()
    averages: Dict[int, Dict[str, float]] = {}
    for cores in EVALUATED_CORE_COUNTS:
        sweep = CharacterizationSweep(
            [spr], models, EVALUATED_BATCH_SIZES,
            cores=cores)
        rows = sweep.run()
        averages[cores] = average_summaries([row.metrics for row in rows])

    baseline = averages[12]
    table: List[list] = []
    for cores, avg in averages.items():
        table.append([cores] + [avg[m] / baseline[m] for m in ALL_METRICS])

    e2e_48 = averages[48]["e2e_s"] / baseline["e2e_s"]
    ttft_48 = averages[48]["ttft_s"] / baseline["ttft_s"]
    tpot_48 = averages[48]["tpot_s"] / baseline["tpot_s"]
    notes = [
        f"paper: 48 cores reduce E2E by 59.8%; measured {(1 - e2e_48) * 100:.1f}%",
        f"paper: prefill -65.9% / decode -54.6%; measured "
        f"{(1 - ttft_48) * 100:.1f}% / {(1 - tpot_48) * 100:.1f}%",
        "96 cores regress vs 48: cross-socket UPI traffic caps effective "
        "bandwidth (Key Finding #3)",
    ]
    return ExperimentReport(
        experiment_id="fig14",
        title="Core-count scaling (normalized to 12 cores)",
        headers=["cores"] + [METRIC_LABELS[m] for m in ALL_METRICS],
        rows=table,
        notes=notes,
    )
