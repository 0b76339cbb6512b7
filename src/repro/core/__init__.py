"""Core characterization framework: metrics, sweeps, comparisons, findings."""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".comparison": ("PairedComparison", "compare_platforms",
                    "per_model_speedup_range"),
    ".findings": ("ALL_FINDING_CHECKS", "FindingResult", "check_all_findings",
                  "check_finding_1", "check_finding_2", "check_finding_3",
                  "check_finding_4", "check_finding_5"),
    ".metrics": ("ALL_METRICS", "LATENCY_METRICS", "METRIC_LABELS",
                 "THROUGHPUT_METRICS", "arithmetic_mean", "average_summaries",
                 "normalize_summary"),
    ".report": ("ExperimentReport",),
    ".runner": ("CharacterizationSweep", "RunResult", "SweepRow",
                "filter_rows", "is_offloaded", "run_inference"),
})
