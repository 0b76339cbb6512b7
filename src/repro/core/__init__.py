"""Core characterization framework: metrics, sweeps, comparisons, findings."""

from repro.core.comparison import (
    PairedComparison,
    compare_platforms,
    per_model_speedup_range,
)
from repro.core.findings import (
    ALL_FINDING_CHECKS,
    FindingResult,
    check_all_findings,
    check_finding_1,
    check_finding_2,
    check_finding_3,
    check_finding_4,
    check_finding_5,
)
from repro.core.metrics import (
    ALL_METRICS,
    LATENCY_METRICS,
    METRIC_LABELS,
    THROUGHPUT_METRICS,
    arithmetic_mean,
    average_summaries,
    normalize_summary,
)
from repro.core.report import ExperimentReport
from repro.core.runner import (
    CharacterizationSweep,
    RunResult,
    SweepRow,
    filter_rows,
    is_offloaded,
    run_inference,
)

__all__ = [
    "ALL_FINDING_CHECKS",
    "ALL_METRICS",
    "CharacterizationSweep",
    "ExperimentReport",
    "FindingResult",
    "LATENCY_METRICS",
    "METRIC_LABELS",
    "PairedComparison",
    "RunResult",
    "SweepRow",
    "THROUGHPUT_METRICS",
    "arithmetic_mean",
    "average_summaries",
    "check_all_findings",
    "check_finding_1",
    "check_finding_2",
    "check_finding_3",
    "check_finding_4",
    "check_finding_5",
    "compare_platforms",
    "filter_rows",
    "is_offloaded",
    "normalize_summary",
    "per_model_speedup_range",
    "run_inference",
]
