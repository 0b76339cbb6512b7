"""Speculative decoding performance model (SpecInfer, paper ref [37]).

Decode is memory-bound: generating one token reads every weight byte.
Speculative decoding has a small *draft* model propose ``gamma`` tokens,
then the *target* model verifies all of them in ONE forward pass — that
pass reads the target weights once but scores gamma+1 positions, so
accepted tokens share the weight traffic. With per-token acceptance
probability ``alpha``, the expected tokens per cycle follow the standard
geometric series::

    E[tokens] = (1 - alpha^(gamma+1)) / (1 - alpha)

Cycle time = gamma draft decode steps + one target verification pass
(a prefill-shaped pass over gamma+1 positions). Effective TPOT divides
cycle time by expected tokens. On a memory-bound platform this is nearly
free throughput — exactly why the technique matters for CPU inference.

:class:`SpeculativeDecoder` prices one cycle's pieces for a dense
target at the paper's default request, each on its own executor: the
draft step on the draft model's, and the verification pass — built by
:class:`~repro.engine.backend.SpecDecodeBackend` over the plain BF16
base — on the target's. The backend is a wrapper like any other (over a
quantized base it speculates in INT8) and also folds a cycle into a
per-token decode graph for the serving/cluster layers.
:class:`SpecDecodeConfig` lives in the backend module and is
re-exported here unchanged.
"""

import dataclasses

# SpecDecodeConfig moved to the backend layer (re-exported here for the
# public API).
from repro.engine.backend import SpecDecodeBackend, SpecDecodeConfig
from repro.engine.inference import InferenceSimulator
from repro.engine.request import PAPER_DEFAULT_REQUEST
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig

__all__ = ["SpecDecodeConfig", "SpecDecodeEstimate", "SpeculativeDecoder"]

#: Draft lengths :meth:`SpeculativeDecoder.best_gamma` searches.
GAMMA_CANDIDATES = (1, 2, 4, 6, 8, 12)


@dataclasses.dataclass(frozen=True)
class SpecDecodeEstimate:
    """Projected speculative-decoding performance.

    Attributes:
        baseline_tpot_s: Target-only autoregressive TPOT.
        draft_step_s: One draft-model decode step.
        verify_pass_s: One target verification pass over gamma+1 positions.
        cycle_s: Full cycle time.
        expected_tokens: Expected tokens per cycle.
    """

    baseline_tpot_s: float
    draft_step_s: float
    verify_pass_s: float
    cycle_s: float
    expected_tokens: float

    @property
    def effective_tpot_s(self) -> float:
        """Mean time per output token under speculation."""
        return self.cycle_s / self.expected_tokens

    @property
    def speedup(self) -> float:
        """TPOT improvement over plain autoregressive decode."""
        return self.baseline_tpot_s / self.effective_tpot_s


class SpeculativeDecoder:
    """Estimates speculative-decoding gains on one platform.

    Args:
        platform: Execution platform.
        target: Large model being served.
        draft: Small proposal model.
        config: Speculation parameters.
    """

    def __init__(self, platform: Platform, target: ModelConfig,
                 draft: ModelConfig,
                 config: SpecDecodeConfig = SpecDecodeConfig()):
        if draft.param_count() >= target.param_count():
            raise ValueError(
                f"draft ({draft.name}) must be smaller than target "
                f"({target.name})")
        self.platform = platform
        self.target = target
        self.draft = draft
        self.config = config
        self._simulator = InferenceSimulator(platform)

    def backend(self) -> SpecDecodeBackend:
        """The folded per-token execution backend for this configuration."""
        return SpecDecodeBackend(draft=self.draft, spec=self.config)

    def estimate(self) -> SpecDecodeEstimate:
        """Project speculative TPOT at the paper's default request (kv at
        mid-generation).

        Draft steps and the verification pass price on *separate*
        executors (the draft's working set is far smaller, so its
        bandwidth derivation differs) — which is why this adapter prices
        the backend's unscaled components itself rather than delegating
        a folded decode graph to one simulator.
        """
        request = PAPER_DEFAULT_REQUEST
        kv_len = request.input_len + request.decode_steps // 2
        batch = request.batch_size

        target_executor = self._simulator._executor(self.target, request)
        draft_executor = self._simulator._executor(self.draft, request)
        backend = self.backend()

        baseline_ops = target_executor.backend.decode_ops(
            self.target, batch, kv_len)
        baseline = sum(t.time_s
                       for t in target_executor.time_ops(baseline_ops))

        draft_ops = draft_executor.backend.decode_ops(
            self.draft, batch, kv_len)
        draft_step = sum(t.time_s for t in draft_executor.time_ops(draft_ops))

        # Verification: one target pass over gamma+1 positions per
        # sequence plus the cached-context KV read (the backend appends
        # it as a pure-memory op, so it prices to exactly
        # bytes / bandwidth).
        verify = sum(t.time_s for t in target_executor.time_ops(
            backend.verify_ops(self.target, batch, kv_len)))

        cycle = self.config.gamma * draft_step + verify
        return SpecDecodeEstimate(
            baseline_tpot_s=baseline,
            draft_step_s=draft_step,
            verify_pass_s=verify,
            cycle_s=cycle,
            expected_tokens=self.config.expected_tokens_per_cycle,
        )

    def best_gamma(self) -> int:
        """The :data:`GAMMA_CANDIDATES` entry with the highest projected
        speedup at the paper's default request."""
        best, best_speedup = GAMMA_CANDIDATES[0], 0.0
        for gamma in GAMMA_CANDIDATES:
            config = dataclasses.replace(self.config, gamma=gamma)
            decoder = SpeculativeDecoder(self.platform, self.target,
                                         self.draft, config)
            speedup = decoder.estimate().speedup
            if speedup > best_speedup:
                best, best_speedup = gamma, speedup
        return best
