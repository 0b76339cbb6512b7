"""Synthetic workload generation.

The paper motivates its three metrics with three serving scenarios
(Section II-C): a real-time chatbot (TTFT-critical), live translation
(TPOT-critical), and batch sentiment analysis (throughput-critical).
These generators produce deterministic, seeded request streams with the
corresponding shapes so examples and tests exercise realistic mixes rather
than a single fixed request.
"""

import dataclasses
import random
from typing import List, Sequence, Tuple

from repro.engine.request import InferenceRequest
from repro.hardware.datatypes import DType
from repro.serving.arrivals import int_sampler
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one synthetic workload.

    Attributes:
        name: Scenario name.
        input_len_range: (min, max) prompt lengths, inclusive.
        output_len_range: (min, max) generation lengths, inclusive.
        batch_size: Sequences per request.
        priority_metric: The metric this scenario cares about
            ("ttft_s", "tpot_s", or "e2e_throughput").
    """

    name: str
    input_len_range: Tuple[int, int]
    output_len_range: Tuple[int, int]
    batch_size: int
    priority_metric: str

    def __post_init__(self) -> None:
        require_positive(self.batch_size, "batch_size")
        for label, (lo, hi) in (("input_len_range", self.input_len_range),
                                ("output_len_range", self.output_len_range)):
            if not 0 < lo <= hi:
                raise ValueError(f"{label} must satisfy 0 < min <= max, "
                                 f"got ({lo}, {hi})")


def chatbot_workload(batch_size: int = 1) -> WorkloadSpec:
    """Interactive chatbot: short prompts, short replies, TTFT-critical."""
    return WorkloadSpec(
        name="chatbot",
        input_len_range=(32, 256),
        output_len_range=(16, 64),
        batch_size=batch_size,
        priority_metric="ttft_s",
    )


def translation_workload(batch_size: int = 4) -> WorkloadSpec:
    """Live translation: steady token pace matters most (TPOT-critical)."""
    return WorkloadSpec(
        name="translation",
        input_len_range=(64, 512),
        output_len_range=(64, 512),
        batch_size=batch_size,
        priority_metric="tpot_s",
    )


def batch_analytics_workload(batch_size: int = 32) -> WorkloadSpec:
    """Offline sentiment analysis: raw tokens/second matter (throughput)."""
    return WorkloadSpec(
        name="batch_analytics",
        input_len_range=(128, 1024),
        output_len_range=(8, 32),
        batch_size=batch_size,
        priority_metric="e2e_throughput",
    )


PRESET_WORKLOADS = (chatbot_workload, translation_workload,
                    batch_analytics_workload)


def generate_requests(spec: WorkloadSpec, count: int,
                      seed: int = 0,
                      dtype: DType = DType.BF16) -> List[InferenceRequest]:
    """Produce *count* deterministic requests matching *spec*.

    The same (spec, count, seed) always yields the same stream.
    """
    require_positive(count, "count")
    rng = random.Random(seed)
    draw_input = int_sampler(rng, *spec.input_len_range)
    draw_output = int_sampler(rng, *spec.output_len_range)
    return [InferenceRequest(batch_size=spec.batch_size,
                             input_len=draw_input(),
                             output_len=draw_output(), dtype=dtype)
            for _ in range(count)]


def total_tokens(requests: Sequence[InferenceRequest]) -> int:
    """Tokens generated across a request stream (throughput numerator)."""
    return sum(r.total_generated_tokens for r in requests)
