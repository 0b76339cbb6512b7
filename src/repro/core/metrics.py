"""Metric definitions and aggregation helpers (Section II-C).

The paper characterizes every workload with six metrics: three latencies
(E2E, TTFT, TPOT) and three throughputs (overall, prefill, decode), all in
tokens/second. Figures average metrics "across all evaluated LLMs and
batch sizes" and normalize to a baseline — the helpers here implement both
conventions.
"""

from typing import Dict, Iterable, List, Sequence

from repro.utils.stats import mean as _mean

#: Canonical metric keys, matching ``InferenceResult.summary()``.
LATENCY_METRICS = ("e2e_s", "ttft_s", "tpot_s")
THROUGHPUT_METRICS = ("e2e_throughput", "prefill_throughput",
                      "decode_throughput")
ALL_METRICS = LATENCY_METRICS + THROUGHPUT_METRICS

#: Display labels used by the experiment tables.
METRIC_LABELS = {
    "e2e_s": "E2E latency",
    "ttft_s": "TTFT",
    "tpot_s": "TPOT",
    "e2e_throughput": "E2E throughput",
    "prefill_throughput": "Prefill throughput",
    "decode_throughput": "Decode throughput",
}


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain mean (used when averaging absolute metric values).

    Thin alias over :func:`repro.utils.stats.mean` that rejects an empty
    sequence.
    """
    if not values:
        raise ValueError("arithmetic_mean of empty sequence")
    return _mean(values)


def average_summaries(summaries: Iterable[Dict[str, float]]
                      ) -> Dict[str, float]:
    """Average each of ``ALL_METRICS`` across several ``summary()`` dicts."""
    rows: List[Dict[str, float]] = list(summaries)
    if not rows:
        raise ValueError("no summaries to average")
    return {m: arithmetic_mean([row[m] for row in rows]) for m in ALL_METRICS}


def normalize_summary(summary: Dict[str, float],
                      baseline: Dict[str, float]) -> Dict[str, float]:
    """Normalize each metric to *baseline* (the paper's figure convention).

    Latency metrics divide value/baseline (below 1.0 = faster than
    baseline); throughput metrics likewise (above 1.0 = higher throughput).
    A zero TPOT baseline (single-token generation) maps to 1.0.
    """
    out: Dict[str, float] = {}
    for key, value in summary.items():
        base = baseline.get(key)
        if base is None:
            continue
        out[key] = value / base if base else 1.0
    return out
