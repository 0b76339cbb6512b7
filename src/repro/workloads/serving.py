"""Sequential serving estimator over a request stream.

Processes a list of requests back-to-back on one platform (the simple
serving discipline the paper's single-node measurements correspond to)
and aggregates per-scenario statistics — the substrate the example
applications build on.
"""

import dataclasses
from typing import List, Sequence

from repro.core.runner import RunResult, run_inference
from repro.engine.request import InferenceRequest
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.utils.stats import mean, percentile
from repro.workloads.generator import total_tokens


@dataclasses.dataclass(frozen=True)
class ServingStats:
    """Aggregate statistics for one served request stream.

    Attributes:
        platform / model: Identification.
        requests_served: Stream length.
        total_time_s: Sum of request E2E times (sequential serving).
        generated_tokens: Tokens produced across the stream.
        mean_ttft_s / mean_tpot_s: Stream-average latency metrics.
        p99_ttft_s: 99th-percentile TTFT via
            :func:`repro.utils.stats.percentile` (linear interpolation).
            Behaviour change: this used to be a nearest-rank index that
            silently returned the stream *maximum* for short streams; it
            now interpolates between order statistics, so p99 means the
            same thing here as everywhere else in the library.
    """

    platform: str
    model: str
    requests_served: int
    total_time_s: float
    generated_tokens: int
    mean_ttft_s: float
    mean_tpot_s: float
    p99_ttft_s: float

    @property
    def throughput(self) -> float:
        """Stream-level generated tokens per second."""
        return self.generated_tokens / self.total_time_s


def serve(platform: Platform, model: ModelConfig,
          requests: Sequence[InferenceRequest]) -> ServingStats:
    """Serve *requests* sequentially and aggregate metrics."""
    if not requests:
        raise ValueError("no requests to serve")
    results: List[RunResult] = [
        run_inference(platform, model, request)
        for request in requests
    ]
    ttfts = [r.ttft_s for r in results]
    tpots = [r.tpot_s for r in results if r.tpot_s > 0]
    return ServingStats(
        platform=platform.name,
        model=model.name,
        requests_served=len(results),
        total_time_s=sum(r.e2e_s for r in results),
        generated_tokens=total_tokens(requests),
        mean_ttft_s=mean(ttfts),
        mean_tpot_s=mean(tpots) if tpots else 0.0,
        p99_ttft_s=percentile(ttfts, 99),
    )
