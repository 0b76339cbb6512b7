"""Shared step-cost memoization for the serving and cluster layers.

The discrete-event serving simulators price the same two primitives over
and over: a single-sequence prefill at some prompt length, and one fused
decode iteration at some (batch size, mean kv length). Both are pure
functions of ``(platform pricing signature, model, shape)``, so a fleet
of replicas re-derives identical numbers millions of times.

:class:`DecodeCostTable` memoizes them once per
``(pricing_signature, model)`` and — the part that enables event-horizon
fast-forward (:meth:`repro.cluster.node.ReplicaNode.advance_to`) — keeps
per-batch-size *prefix-sum curves* of decode step cost, built lazily in
chunks from :meth:`~repro.engine.executor.OperatorExecutor.time_decode_series`:

``prefix_t[i]`` = total time of decode steps at ``kv_len`` 1..i and
``step_t[i]`` = the cost of the one step at ``kv_len`` i, so

* one iteration at ``kv`` costs ``step_t[kv]`` (stored as
  ``prefix_t[kv] - prefix_t[kv - 1]``, the same subtraction),
* a whole run of ``k`` iterations starting at mean kv ``m`` costs
  ``prefix_t[m + k - 1] - prefix_t[m - 1]`` (one subtraction), and its
  per-step costs are the slice ``step_t[m:m + k]``, and
* "how many iterations start before a deadline" is one binary search
  over ``prefix_t`` (the replica loop does it in
  :meth:`~repro.cluster.node.ReplicaNode.advance_to`).

Tables are shared across every replica with an equal pricing signature
via the module registry (:func:`decode_cost_table`);
:func:`repro.experiments.clear_caches` empties the registry whenever
calibration constants change, which is the memo-invalidation rule — keys
capture platform, dtype, bandwidth, and compute scale, but *not* the
process-wide calibration tables those were derived from.
"""

import math
from array import array
from typing import Dict, List, Tuple

from repro.engine.executor import OperatorExecutor
from repro.models.config import ModelConfig

#: Minimum extension chunk: large enough to amortize the closed-form
#: series analysis, small enough not to over-price short workloads.
_MIN_CHUNK = 256
#: Prompt lengths :meth:`DecodeCostTable.expected_prefill_time` prices.
_PREFILL_SAMPLES = 17


class _BatchCurve:
    """Prefix-sum decode cost curves for one batch size.

    ``prefix_t[i]`` sums step times for ``kv_len`` in ``[1, i]`` (index 0
    is the empty sum) and ``step_t[i]`` is the step at ``kv_len`` i, the
    difference of consecutive prefix entries (index 0 is unused). Curves
    grow by doubling so a trace that decodes to kv 4000 pays O(log)
    extension calls, each a closed-form series build.

    The compute/memory-leg curves ``prefix_c``/``prefix_m`` serve only
    attribution (a recording tracer), so :meth:`ensure` fills the time
    leg alone and records each chunk's kv range. The legs are packed
    ``array('d')`` buffers built on first read by replaying those chunks:
    the same boundaries anchor the same interpolation, so they are bit
    for bit an eager build, and an untraced run never pays for them.
    """

    __slots__ = ("_executor", "_model", "_batch", "_chunks",
                 "prefix_t", "step_t", "_prefix_c", "_prefix_m")

    def __init__(self, executor: OperatorExecutor, model: ModelConfig,
                 batch: int):
        self._executor = executor
        self._model = model
        self._batch = batch
        #: (kv_start, kv_end) of every extension, in order.
        self._chunks: List[Tuple[int, int]] = []
        self.prefix_t: List[float] = [0.0]
        self.step_t: List[float] = [0.0]
        self._prefix_c = array("d", [0.0])
        self._prefix_m = array("d", [0.0])

    def ensure(self, kv_end: int) -> None:
        """Extend the time curve so every ``kv_len < kv_end`` is priced."""
        have = len(self.prefix_t)  # kv values 1..have-1 are priced
        if kv_end <= have:
            return
        target = max(kv_end, 2 * (have - 1), _MIN_CHUNK + 1)
        self._chunks.append((have, target))
        ts, = self._executor.time_decode_series(
            self._model, self._batch, have, target)
        pt, st = self.prefix_t, self.step_t
        t = pt[-1]
        for dt in ts:
            prev = t
            t += dt
            pt.append(t)
            st.append(t - prev)

    def _legs(self) -> None:
        """Fill the leg curves up to the time curve's priced range."""
        pc, pm = self._prefix_c, self._prefix_m
        have = len(pc)
        c, m = pc[-1], pm[-1]
        for lo, hi in self._chunks:
            if lo < have:
                continue
            cs, ms = self._executor.time_decode_series(
                self._model, self._batch, lo, hi, ("compute_s", "memory_s"))
            for dc, dm in zip(cs, ms):
                c += dc
                m += dm
                pc.append(c)
                pm.append(m)

    @property
    def prefix_c(self) -> array:
        """Running sum of the compute leg, built on first read."""
        if len(self._prefix_c) < len(self.prefix_t):
            self._legs()
        return self._prefix_c

    @property
    def prefix_m(self) -> array:
        """Running sum of the memory leg, built on first read."""
        if len(self._prefix_m) < len(self.prefix_t):
            self._legs()
        return self._prefix_m


class DecodeCostTable:
    """Memoized serving-cost primitives for one (executor, model) pairing.

    Prices bit-identically to the executor it wraps (prefill values are
    cached verbatim; decode values come from the probe-verified
    closed-form series, which tests pin to the per-step loop at ≤1e-9
    relative). Obtain instances through :func:`decode_cost_table` so
    replicas with equal pricing signatures share one table.
    """

    def __init__(self, executor: OperatorExecutor, model: ModelConfig):
        self.executor = executor
        self.model = model
        self._curves: Dict[int, _BatchCurve] = {}
        #: (batch, input_len) -> the executor's (time, compute, memory).
        self._prefill: Dict[Tuple[int, int],
                            Tuple[float, float, float]] = {}
        self._expected: Dict[tuple, float] = {}

    def curve(self, batch: int) -> _BatchCurve:
        """The decode cost curves for *batch*, created empty on first use.

        Callers :meth:`~_BatchCurve.ensure` the kv range they read.
        """
        curve = self._curves.get(batch)
        if curve is None:
            curve = _BatchCurve(self.executor, self.model, batch)
            self._curves[batch] = curve
        return curve

    # -- prefill -----------------------------------------------------------

    def _prefill_pass(self, batch: int, input_len: int):
        priced = self.executor.prefill_pass(self.model, batch, input_len)
        self._prefill[(batch, input_len)] = priced
        return priced

    def prefill_time(self, batch: int, input_len: int) -> float:
        """Single prefill pass cost (memoized exact pricing).

        Ops come from the executor's backend (quantized / sharded / plain
        as configured), plus the backend's per-pass communication.
        """
        cached = self._prefill.get((batch, input_len))
        if cached is None:
            cached = self._prefill_pass(batch, input_len)
        return cached[0]

    def prefill_split(self, batch: int, input_len: int):
        """Memoized (compute_s, memory_s) legs of one prefill pass.

        Communication is wall time, not a roofline leg, so it does not
        appear here — matching how the decode curves attribute it.
        """
        cached = self._prefill.get((batch, input_len))
        if cached is None:
            cached = self._prefill_pass(batch, input_len)
        return cached[1:]

    # -- decode ------------------------------------------------------------

    def step_time(self, batch: int, kv_len: int) -> float:
        """One fused decode iteration at ``(batch, kv_len)``."""
        kv = max(1, kv_len)
        curve = self.curve(batch)
        curve.ensure(kv + 1)
        return curve.step_t[kv]

    def step_split(self, batch: int, kv_len: int):
        """(compute_s, memory_s) legs of one decode iteration."""
        kv = max(1, kv_len)
        curve = self.curve(batch)
        curve.ensure(kv + 1)
        return (curve.prefix_c[kv] - curve.prefix_c[kv - 1],
                curve.prefix_m[kv] - curve.prefix_m[kv - 1])

    def range_cost(self, batch: int, kv_start: int, kv_end: int):
        """(time, compute, memory) summed over ``kv_len`` in ``[kv_start, kv_end)``.

        One subtraction per leg — the closed-form pricing of a whole
        coalesced decode run.
        """
        curve = self.curve(batch)
        curve.ensure(kv_end)
        a, b = kv_start - 1, kv_end - 1
        return (curve.prefix_t[b] - curve.prefix_t[a],
                curve.prefix_c[b] - curve.prefix_c[a],
                curve.prefix_m[b] - curve.prefix_m[a])

    # -- expected demands (fluid solver) -----------------------------------

    def expected_prefill_time(self, input_range: Tuple[int, int]) -> float:
        """Mean single-sequence prefill time over a uniform prompt range.

        ``input_range`` is inclusive, matching the workload generators.
        Narrow ranges (at most :data:`_PREFILL_SAMPLES` lengths) are
        averaged exactly; wide ones integrate a trapezoid through that
        many evenly spaced lengths — prefill cost is piecewise smooth in
        the prompt length (affine weight traffic plus a quadratic
        attention term), so the sampled mean tracks the exact one to
        well under the fluid solver's validity envelope while pricing
        ~17 prefills instead of hundreds. Memoized per range.
        """
        lo, hi = input_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad input range {input_range}")
        key = ("prefill", lo, hi)
        cached = self._expected.get(key)
        if cached is not None:
            return cached
        width = hi - lo + 1
        if width <= _PREFILL_SAMPLES:
            mean = sum(self.prefill_time(1, length)
                       for length in range(lo, hi + 1)) / width
        else:
            span = hi - lo
            xs = sorted({lo + round(i * span / (_PREFILL_SAMPLES - 1))
                         for i in range(_PREFILL_SAMPLES)})
            ys = [self.prefill_time(1, x) for x in xs]
            area = sum((ys[i] + ys[i + 1]) / 2.0 * (xs[i + 1] - xs[i])
                       for i in range(len(xs) - 1))
            mean = area / span
        self._expected[key] = mean
        return mean

    def expected_decode_time(self, batch: int,
                             input_range: Tuple[int, int],
                             output_range: Tuple[int, int]) -> float:
        """Expected decode-phase wall seconds at a fixed batch size.

        For one request with shape ``(Lin, Lout)`` decoding in a batch
        of *batch*, the whole-batch iterations it lives through cost
        ``prefix_t[Lin + Lout - 1] - prefix_t[Lin]`` (its ``Lout - 1``
        steps at kv ``Lin + 1 .. Lin + Lout - 1``). This returns the
        exact expectation of that quantity over independent uniform
        integer draws from the two inclusive ranges: the start term is
        a slice mean, the end term the closed-form convolution of the
        two uniforms (trapezoidal integer counts of each ``Lin + Lout``)
        against the prefix curve, summed by ``math.fsum`` so it is
        correctly rounded on every host. Memoized per (batch, ranges) —
        the fluid solver's per-occupancy demand.
        """
        lo_in, hi_in = input_range
        lo_out, hi_out = output_range
        if lo_in < 1 or hi_in < lo_in:
            raise ValueError(f"bad input range {input_range}")
        if lo_out < 1 or hi_out < lo_out:
            raise ValueError(f"bad output range {output_range}")
        key = ("decode", batch, lo_in, hi_in, lo_out, hi_out)
        cached = self._expected.get(key)
        if cached is not None:
            return cached
        n_in = hi_in - lo_in + 1
        n_out = hi_out - lo_out + 1
        curve = self.curve(batch)
        curve.ensure(hi_in + hi_out)
        pt = curve.prefix_t
        mean_start = sum(pt[lo_in:hi_in + 1]) / n_in
        # S = Lin + Lout is lo_sum + s in min(s + 1, n_in, n_out,
        # n_in + n_out - 1 - s) ways (ramp, flat top, ramp); the curve is
        # read at S - 1, the request's last decode kv.
        lo_sum, hi_sum = lo_in + lo_out, hi_in + hi_out
        k = min(n_in, n_out)
        counts = [*range(1, k), *[k] * (abs(n_in - n_out) + 1),
                  *range(k - 1, 0, -1)]
        mean_end = math.fsum([count * p for count, p in zip(
            counts, pt[lo_sum - 1:hi_sum])]) / (n_in * n_out)
        value = mean_end - mean_start
        self._expected[key] = value
        return value


#: Registry of shared tables, keyed by (pricing signature, model). Model
#: configs are frozen dataclasses, so equal configs share even across
#: separately-built replicas.
_TABLES: Dict[tuple, DecodeCostTable] = {}


def decode_cost_table(executor: OperatorExecutor,
                      model: ModelConfig) -> DecodeCostTable:
    """The shared cost table for *executor*'s pricing signature and *model*."""
    key = (executor.pricing_signature, model)
    table = _TABLES.get(key)
    if table is None:
        table = DecodeCostTable(executor, model)
        _TABLES[key] = table
    return table


def clear_decode_cost_tables() -> None:
    """Empty the table registry (calibration constants changed)."""
    _TABLES.clear()
