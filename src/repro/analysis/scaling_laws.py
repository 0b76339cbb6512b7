"""Batch-scaling analysis: find the throughput knee.

The paper sweeps batch 1-32 and shows throughput rising while latency
creeps (Figs. 8-10). Operators need the *knee*: the batch where additional
batching stops buying meaningful throughput but keeps hurting latency.
This module fits the simulated throughput(batch) series to the saturating
form ``T(b) = T_max * b / (b + b_half)`` (the shape roofline analysis
predicts: weights amortize across the batch until compute saturates) and
reports the knee as the smallest batch achieving a target fraction of the
asymptote.
"""

import dataclasses
from typing import List, Sequence, Tuple

from repro.core.runner import run_inference
from repro.engine.request import InferenceRequest
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.utils.validation import require_positive


@dataclasses.dataclass(frozen=True)
class BatchScalingFit:
    """Fitted saturation curve and derived operating points.

    Attributes:
        t_max: Fitted asymptotic throughput (tokens/s).
        b_half: Batch at which throughput reaches half the asymptote.
        samples: Raw (batch, throughput) points the fit used.
    """

    t_max: float
    b_half: float
    samples: List[Tuple[int, float]]

    def predicted(self, batch: float) -> float:
        """Fitted throughput at *batch*."""
        require_positive(batch, "batch")
        return self.t_max * batch / (batch + self.b_half)

    def knee_batch(self, target_fraction: float = 0.8) -> float:
        """Smallest batch reaching *target_fraction* of the asymptote.

        Solving ``b/(b+h) = f`` gives ``b = f*h / (1-f)``.
        """
        if not 0 < target_fraction < 1:
            raise ValueError("target_fraction must be in (0, 1)")
        return target_fraction * self.b_half / (1.0 - target_fraction)

    def fit_error(self) -> float:
        """Mean relative error of the fit over the samples."""
        errors = [abs(self.predicted(b) - t) / t for b, t in self.samples]
        return sum(errors) / len(errors)


def fit_batch_scaling(samples: Sequence[Tuple[int, float]]) -> BatchScalingFit:
    """Least-squares fit of ``T(b) = T_max * b / (b + b_half)``.

    Linearized: ``1/T = (1/T_max) + (b_half/T_max) * (1/b)`` — ordinary
    least squares on (1/b, 1/T).
    """
    if len(samples) < 2:
        raise ValueError("need at least two (batch, throughput) samples")
    xs = [1.0 / b for b, _ in samples]
    ys = [1.0 / t for _, t in samples]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        raise ValueError("samples must span more than one batch size")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var_x            # b_half / T_max
    intercept = mean_y - slope * mean_x  # 1 / T_max
    if intercept <= 0:
        # Degenerate (super-linear data); clamp to the largest observation.
        t_max = max(t for _, t in samples) * 1.5
        return BatchScalingFit(t_max=t_max, b_half=1.0,
                               samples=list(samples))
    t_max = 1.0 / intercept
    b_half = max(1e-6, slope * t_max)
    return BatchScalingFit(t_max=t_max, b_half=b_half,
                           samples=list(samples))


def measure_batch_scaling(platform: Platform, model: ModelConfig,
                          batches: Sequence[int] = (1, 2, 4, 8, 16, 32),
                          input_len: int = 128, output_len: int = 32
                          ) -> BatchScalingFit:
    """Sweep *batches* on the simulator and fit the saturation curve."""
    samples = []
    for batch in batches:
        request = InferenceRequest(batch_size=batch, input_len=input_len,
                                   output_len=output_len)
        result = run_inference(platform, model, request)
        samples.append((batch, result.e2e_throughput))
    return fit_batch_scaling(samples)
