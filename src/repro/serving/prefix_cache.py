"""Shared-prefix (system-prompt) caching.

Production chat deployments prepend the same system prompt to every
request. Caching that prefix's KV once and reusing it turns the shared
tokens' prefill cost into a one-time cost — a large TTFT lever precisely
because prefill is the CPU's weaker phase (Key Finding #1 attributes the
CPU's biggest deficit vs GPUs to prefill compute).

The model: a request with ``prefix_len`` shared and ``unique_len`` private
prompt tokens pays

* full prefill over ``prefix_len + unique_len`` on a cache miss,
* prefill over ``unique_len`` only on a hit (the private tokens still
  attend to the cached prefix — a KV read, charged explicitly).

:class:`PrefixCacheModel` is a thin adapter over
:class:`~repro.engine.backend.PrefixCacheBackend`, which owns the
warm-prefill op graph (unique-suffix pass + cached-prefix KV read) and
also drops into the serving/cluster layers directly.
"""

import dataclasses

from repro.engine.backend import PrefixCacheBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.models.memory import kv_cache_bytes
from repro.utils.validation import require_non_negative, require_positive


@dataclasses.dataclass(frozen=True)
class PrefixCacheEstimate:
    """Projected TTFT with and without prefix caching.

    Attributes:
        cold_ttft_s: Full prefill (cache miss / first request).
        warm_ttft_s: Unique-suffix prefill plus cached-prefix KV read.
        prefix_kv_bytes: KV held by the cached prefix (per sequence).
    """

    cold_ttft_s: float
    warm_ttft_s: float
    prefix_kv_bytes: float

    @property
    def ttft_speedup(self) -> float:
        """Warm-over-cold TTFT improvement."""
        return self.cold_ttft_s / self.warm_ttft_s

    def amortized_ttft_s(self, hit_rate: float) -> float:
        """Expected TTFT at a given cache hit rate."""
        if not 0 <= hit_rate <= 1:
            raise ValueError(f"hit_rate must be in [0, 1], got {hit_rate}")
        return (hit_rate * self.warm_ttft_s
                + (1.0 - hit_rate) * self.cold_ttft_s)


class PrefixCacheModel:
    """Estimates prefix-caching gains on one platform.

    Args:
        platform: Execution platform.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self._simulator = InferenceSimulator(platform)

    def estimate(self, model: ModelConfig, prefix_len: int, unique_len: int,
                 batch_size: int = 1) -> PrefixCacheEstimate:
        """Cold vs warm TTFT for a (prefix, unique-suffix) prompt split."""
        require_positive(prefix_len, "prefix_len")
        require_positive(unique_len, "unique_len")
        total = prefix_len + unique_len
        request = InferenceRequest(batch_size=batch_size, input_len=total)
        executor = self._simulator._executor(model, request)

        cold = sum(t.time_s for t in executor.time_prefill_ops(
            model, batch_size, total))

        # The backend's warm graph is the unique-suffix prefill plus the
        # cached-prefix KV read (the unique tokens still attend to the
        # cached prefix: read its K and V once per layer).
        backend = PrefixCacheBackend(prefix_len=prefix_len)
        warm_ops = backend.prefill_ops(model, batch_size, total)
        warm = sum(t.time_s for t in executor.time_ops(warm_ops))
        prefix_kv = kv_cache_bytes(model, prefix_len, batch_size)

        return PrefixCacheEstimate(
            cold_ttft_s=cold,
            warm_ttft_s=warm,
            prefix_kv_bytes=prefix_kv / batch_size,
        )

    def break_even_requests(self, model: ModelConfig, prefix_len: int,
                            unique_len: int) -> float:
        """Requests needed before caching the prefix pays for itself.

        Caching costs one prefix prefill up front; each subsequent hit
        saves (cold - warm). Break-even is cost / saving.
        """
        require_non_negative(prefix_len, "prefix_len")
        estimate = self.estimate(model, prefix_len, unique_len)
        saving = estimate.cold_ttft_s - estimate.warm_ttft_s
        if saving <= 0:
            return float("inf")
        request = InferenceRequest(input_len=prefix_len)
        executor = self._simulator._executor(model, request)
        prefix_cost = sum(t.time_s for t in executor.time_prefill_ops(
            model, 1, prefix_len))
        return prefix_cost / saving
