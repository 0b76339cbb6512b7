"""Operator executor: prices one :class:`~repro.models.layers.Op` on a platform.

The executor is where hardware meets workload: it selects the best engine
per op (AMX vs AVX-512 on SPR, mirroring IPEX dispatch), applies the
dimension-dependent GEMM efficiency, and composes the roofline
``max(compute, memory)`` with per-launch overhead.

Pricing one op is the simulator's innermost loop, so it builds no
dataclass: the result is an :class:`OpTiming` named tuple built
positionally, and the efficiency memo is keyed by strings and ints
resolved once per engine (:func:`~repro.gemm.efficiency.curve_key`), so
every lookup hashes in C.
"""

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.engine.backend import ExecutionBackend
from repro.gemm.efficiency import _gemm_efficiency_cached, curve_key
from repro.hardware.compute import ComputeEngine, EngineKind
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.models.layers import Op
from repro.utils.validation import require_positive

# Non-GEMM (bandwidth-bound) kernels run their arithmetic on vector units
# at a reduced fraction of peak — they are not blocked/fused like GEMMs.
_ELEMENTWISE_COMPUTE_EFFICIENCY = 0.35

_OP_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(Op))
_DIM_FIELDS = ("m", "n", "k")
_FLOAT_FIELDS = ("weight_bytes", "activation_bytes", "kv_read_bytes",
                 "kv_write_bytes", "extra_flops")

# Largest residue period tried for an op whose dims are not affine in kv.
_MAX_RESIDUE_PERIOD = 8


def _dim_trend(op_lo: Op, op_hi: Op, span: int):
    """``(field, slope, offset)``: the one GEMM dim that changes over
    *span* steps (``None`` if none), its integral per-step growth and start
    value; ``None`` when two dims change or the growth is not integral."""
    varying = [f for f in _DIM_FIELDS
               if getattr(op_lo, f) != getattr(op_hi, f)]
    if not varying:
        return None, 0, 0
    lo, hi = getattr(op_lo, varying[0]), getattr(op_hi, varying[0])
    if len(varying) > 1 or (hi - lo) % span != 0:
        return None
    return varying[0], (hi - lo) // span, lo


class OpTiming(NamedTuple):
    """Priced execution of one operator.

    A named tuple: immutable, with attribute access, built positionally
    once per priced op. A backend derives an adjusted copy with
    ``timing._replace(...)``.

    Attributes:
        op: The operator priced.
        time_s: Roofline time including launch overhead.
        compute_s: Compute leg (0 if the op has no FLOPs).
        memory_s: Memory leg.
        overhead_s: Launch/dispatch overhead charged.
        engine_name: Engine that executed the op's GEMM portion.
        efficiency: Compute efficiency applied.
        memory_bound: Whether the memory leg dominated.
    """

    op: Op
    time_s: float
    compute_s: float
    memory_s: float
    overhead_s: float
    engine_name: str
    efficiency: float
    memory_bound: bool


class OperatorExecutor:
    """Prices operators against one platform configuration.

    Args:
        platform: Target platform.
        backend: Execution backend supplying the compute dtype (its
            :attr:`~repro.engine.backend.ExecutionBackend.compute_dtype`
            selects the engine peaks), decode/prefill op graphs,
            post-pricing timing adjustments, and per-pass communication.
        bandwidth: Effective memory bandwidth in bytes/s (already adjusted
            for NUMA configuration, core count, and stream efficiency).
        compute_scale: Multiplier on engine peaks (core-count scaling).
    """

    def __init__(self, platform: Platform, backend: ExecutionBackend,
                 bandwidth: float, compute_scale: float = 1.0):
        require_positive(bandwidth, "bandwidth")
        require_positive(compute_scale, "compute_scale")
        self.platform = platform
        self.backend = backend
        self.dtype = dtype = backend.compute_dtype
        self.bandwidth = bandwidth
        self.compute_scale = compute_scale
        # Resolved once: the hot pricing loops skip the adjustment call
        # entirely for non-adjusting backends.
        self._adjust = backend.adjust_timing if backend.adjusts else None
        self._engines = [e for e in platform.engines if e.supports(dtype)]
        if not self._engines:
            raise ValueError(f"{platform.name} has no engine for {dtype}")
        self._vector_like = self._pick_vector_like()
        # Hot-loop constants, resolved once so per-op pricing is pure
        # arithmetic plus one cached-curve lookup: per engine its name,
        # scaled peak, launch overhead and efficiency-memo key.
        self._race = [(e.name, e.peak(dtype) * compute_scale,
                       e.launch_overhead_s) + curve_key(e)
                      for e in self._engines]
        self._elementwise_peak = (self._vector_like.peak(dtype)
                                  * compute_scale
                                  * _ELEMENTWISE_COMPUTE_EFFICIENCY)

    @property
    def pricing_signature(self):
        """Hashable key identifying what this executor prices like.

        Two executors with equal signatures produce identical timings for
        identical ops: platform names map to fixed engine definitions, and
        pricing otherwise depends only on dtype, bandwidth, the compute
        scale, and the backend's op graphs/adjustments (captured by the
        backend signature). Cross-instance memo layers (the serving
        step-cost tables) key on this instead of executor identity.
        """
        return (self.platform.name, self.dtype, self.bandwidth,
                self.compute_scale, self.backend.signature)

    def _pick_vector_like(self) -> ComputeEngine:
        """Engine used for elementwise arithmetic (lowest-peak available)."""
        vectors = [e for e in self._engines if e.kind is EngineKind.VECTOR]
        if vectors:
            return max(vectors, key=lambda e: e.peak(self.dtype))
        return min(self._engines, key=lambda e: e.peak(self.dtype))

    def time_op(self, op: Op) -> OpTiming:
        """Price *op*; GEMM ops try every engine and keep the fastest.

        Engine selection races *unadjusted* candidates; the backend's
        post-pricing adjustment (e.g. dequantization overhead) is applied
        to the winner — the same select-then-inflate order the original
        quantized simulator used.
        """
        memory_s = op.memory_bytes / self.bandwidth
        if op.m > 0 and op.n > 0 and op.k > 0:  # op.is_gemm, inlined
            timing = self._time_gemm(op, memory_s)
        else:
            timing = self._time_bandwidth_op(op, memory_s)
        if self._adjust is not None:
            timing = self._adjust(timing)
        return timing

    def _gemm_candidates(self, op: Op, memory_s: float) -> List[OpTiming]:
        """One candidate timing per engine, in platform engine order."""
        candidates: List[OpTiming] = []
        m, n, k = op.m, op.n, op.k
        gemm_flops = 2.0 * m * n * k * op.instances
        extra_s = op.extra_flops / self._elementwise_peak
        for name, peak, launch_s, kind, tile in self._race:
            eff = _gemm_efficiency_cached(kind, tile, m, n, k)
            compute_s = gemm_flops / (peak * eff) + extra_s
            overhead_s = launch_s * op.kernel_launches
            candidates.append(OpTiming(
                op, max(compute_s, memory_s) + overhead_s, compute_s,
                memory_s, overhead_s, name, eff, memory_s >= compute_s))
        return candidates

    def _time_gemm(self, op: Op, memory_s: float) -> OpTiming:
        # Scalar engine race, same first-strict-minimum tie-break as
        # ``min(_gemm_candidates(...), key=time_s)`` but building only the
        # winning OpTiming (this is the hottest call in grid sweeps).
        m, n, k = op.m, op.n, op.k
        gemm_flops = 2.0 * m * n * k * op.instances
        extra_s = op.extra_flops / self._elementwise_peak
        best = None
        for name, peak, launch_s, kind, tile in self._race:
            eff = _gemm_efficiency_cached(kind, tile, m, n, k)
            compute_s = gemm_flops / (peak * eff) + extra_s
            overhead_s = launch_s * op.kernel_launches
            time_s = max(compute_s, memory_s) + overhead_s
            if best is None or time_s < best[0]:
                best = (time_s, compute_s, overhead_s, name, eff)
        assert best is not None
        time_s, compute_s, overhead_s, name, eff = best
        return OpTiming(op, time_s, compute_s, memory_s, overhead_s, name,
                        eff, memory_s >= compute_s)

    def _time_bandwidth_op(self, op: Op, memory_s: float) -> OpTiming:
        engine = self._vector_like
        compute_s = op.extra_flops / self._elementwise_peak
        overhead_s = engine.launch_overhead_s * op.kernel_launches
        return OpTiming(op, max(compute_s, memory_s) + overhead_s, compute_s,
                        memory_s, overhead_s, engine.name,
                        _ELEMENTWISE_COMPUTE_EFFICIENCY, memory_s >= compute_s)

    def time_ops(self, ops: List[Op]) -> List[OpTiming]:
        """Price a whole operator list (one pass)."""
        return [self.time_op(op) for op in ops]

    def _candidates(self, op: Op) -> List[OpTiming]:
        """All engine-candidate timings for *op* (one entry for non-GEMMs).

        Candidates are unadjusted; pick winners with :meth:`_best` so the
        backend adjustment lands after engine selection, matching
        :meth:`time_op`.
        """
        memory_s = op.memory_bytes / self.bandwidth
        if op.is_gemm:
            return self._gemm_candidates(op, memory_s)
        return [self._time_bandwidth_op(op, memory_s)]

    def _best(self, candidates: List[OpTiming]) -> OpTiming:
        """Winning candidate with the backend adjustment applied."""
        best = min(candidates, key=lambda t: t.time_s)
        if self._adjust is not None:
            best = self._adjust(best)
        return best

    def _memory_dominated(self, cand_lo: List[OpTiming],
                          cand_hi: List[OpTiming]) -> bool:
        """Whether the roofline max() is memory everywhere in the range.

        Compares each engine's (adjusted) compute leg at the top of the
        range against its memory leg at the bottom — compute is monotone
        non-decreasing in kv and memory affine increasing, so this bounds
        the whole range. Adjustments never touch the memory leg, so using
        the adjusted compute keeps the check conservative for adjusting
        backends.
        """
        if self._adjust is None:
            return all(c1.compute_s <= c0.memory_s
                       for c0, c1 in zip(cand_lo, cand_hi))
        adjust = self._adjust
        return all(adjust(c1).compute_s <= c0.memory_s
                   for c0, c1 in zip(cand_lo, cand_hi))

    # -- prefill pricing -----------------------------------------------------

    def time_prefill_ops(self, model: ModelConfig, batch_size: int,
                         input_len: int) -> List[OpTiming]:
        """Price one prefill pass of the backend's op graph.

        Per-op timings only; the backend's per-pass communication
        (:meth:`prefill_comm_s`) is charged separately to wall time.
        """
        ops = self.backend.prefill_ops(model, batch_size, input_len)
        return [self.time_op(op) for op in ops]

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        """Backend communication time for one prefill pass (seconds)."""
        return self.backend.prefill_comm_s(model, batch_size, input_len)

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        """Backend communication time per decode iteration (seconds)."""
        return self.backend.decode_comm_s(model, batch_size)

    # -- whole-pass pricing (the serving layers' primitives) -----------------
    # Each returns (time_s, compute_s, memory_s). Per-pass communication
    # (TP allreduce, the hybrid GPU leg) is wall time, not a roofline
    # leg, so it enters time_s only.

    def prefill_pass(self, model: ModelConfig, batch_size: int,
                     input_len: int):
        """One prefill pass: op times summed, plus its communication."""
        timings = self.time_prefill_ops(model, batch_size, input_len)
        return (sum(t.time_s for t in timings)
                + self.prefill_comm_s(model, batch_size, input_len),
                sum(t.compute_s for t in timings),
                sum(t.memory_s for t in timings))

    def decode_step(self, model: ModelConfig, batch_size: int, kv_len: int):
        """One fused decode iteration at mean KV length *kv_len* (≥ 1)."""
        timings = self.time_ops(self.backend.decode_ops(model, batch_size,
                                                        max(1, kv_len)))
        return (sum(t.time_s for t in timings)
                + self.decode_comm_s(model, batch_size),
                sum(t.compute_s for t in timings),
                sum(t.memory_s for t in timings))

    # -- closed-form decode pricing ------------------------------------------
    # Per-op decode time is piecewise affine in kv_len (memory leg linear,
    # each engine's compute leg affine between tile-padding boundaries,
    # weight streaming constant). One walk (_decode_walk) cuts every op's
    # kv range into probe-verified affine runs; time_decode_range sums the
    # runs and time_decode_series fills them step by step.

    def time_decode_range(self, model: ModelConfig, batch_size: int,
                          kv_start: int, kv_end: int) -> "DecodeRangeTiming":
        """Price every decode step with ``kv_len`` in ``[kv_start, kv_end)``.

        Equivalent to pricing :func:`~repro.models.opgraph.decode_step_ops`
        once per step and summing, but analytical: each affine run of the
        decode walk sums in closed form as ``count * (t_lo + t_hi) / 2``.
        Every run is verified against probe evaluations of the exact
        per-step pricer and falls back to exact pricing if the affine
        assumption fails, so results agree with the step loop to within
        floating-point noise (well under 1e-9 relative).

        Runs in O(#ops + #breakpoints) per-step pricings instead of
        O(steps x ops x engines).
        """
        steps = kv_end - kv_start
        if steps <= 0:
            return DecodeRangeTiming(steps=0, time_s=0.0, compute_s=0.0,
                                     memory_s=0.0, flops=0.0,
                                     weight_bytes=0.0, activation_bytes=0.0,
                                     kv_read_bytes=0.0, kv_write_bytes=0.0,
                                     op_times={})
        time_s = compute_s = memory_s = 0.0
        flops = weight_b = act_b = kvr_b = kvw_b = 0.0
        op_times: Dict[str, float] = {}
        for op_lo, op_hi, runs, dense in self._decode_walk(
                model, batch_size, kv_start, kv_end):
            t_sum = c_sum = m_sum = 0.0
            for lo, hi, t0, t1 in runs:
                count = hi - lo
                t_sum += count * (t0.time_s + t1.time_s) / 2.0
                c_sum += count * (t0.compute_s + t1.compute_s) / 2.0
                m_sum += count * (t0.memory_s + t1.memory_s) / 2.0
            if not dense:
                # Byte/FLOP accounting is affine in kv_len, so the whole
                # range sums by trapezoid on the endpoint graphs.
                flops += steps * (op_lo.flops + op_hi.flops) / 2.0
                weight_b += steps * (op_lo.weight_bytes
                                     + op_hi.weight_bytes) / 2.0
                act_b += steps * (op_lo.activation_bytes
                                  + op_hi.activation_bytes) / 2.0
                kvr_b += steps * (op_lo.kv_read_bytes
                                  + op_hi.kv_read_bytes) / 2.0
                kvw_b += steps * (op_lo.kv_write_bytes
                                  + op_hi.kv_write_bytes) / 2.0
            else:
                # A dimension that is not affine in kv_len (TP sharding
                # floors the attention score GEMM's context length to
                # n // degree): the op was priced step by step, so its
                # accounting is summed step by step too.
                stepped = [run[2].op for run in runs]
                flops += sum(op.flops for op in stepped)
                weight_b += sum(op.weight_bytes for op in stepped)
                act_b += sum(op.activation_bytes for op in stepped)
                kvr_b += sum(op.kv_read_bytes for op in stepped)
                kvw_b += sum(op.kv_write_bytes for op in stepped)
            time_s += t_sum
            compute_s += c_sum
            memory_s += m_sum
            op_times[op_lo.name] = op_times.get(op_lo.name, 0.0) + t_sum
        comm = self.backend.decode_comm_s(model, batch_size)
        if comm:
            # Per-iteration communication (TP allreduce) is constant in
            # kv_len; charged to wall time only, like the step loop does.
            time_s += steps * comm
        return DecodeRangeTiming(
            steps=steps, time_s=time_s, compute_s=compute_s,
            memory_s=memory_s, flops=flops, weight_bytes=weight_b,
            activation_bytes=act_b, kv_read_bytes=kvr_b, kv_write_bytes=kvw_b,
            op_times=op_times)

    def time_decode_series(self, model: ModelConfig, batch_size: int,
                           kv_start: int, kv_end: int,
                           fields: Tuple[str, ...] = ("time_s",)):
        """Per-step decode pricing for every ``kv_len`` in ``[kv_start, kv_end)``.

        Returns one list of length ``kv_end - kv_start`` per
        :class:`OpTiming` field named in *fields* (``time_s`` alone by
        default; ``compute_s`` and ``memory_s`` are attribution legs),
        all from one decode walk shared with :meth:`time_decode_range`:
        each affine run's interior steps are filled by endpoint
        interpolation, so every value matches the exact pricer to within
        the probe tolerance (1e-11 relative). The serving layer's
        step-cost tables turn these into prefix sums, which is what lets
        a discrete-event simulator fast-forward whole decode intervals.

        Costs O(#ops + #breakpoints) pricings, plus one per step for an
        op whose dims are not affine in kv_len (TP's sharded score GEMM,
        synthesized per residue class from O(period) graph builds), and
        one list pass per run and field; not O(steps x ops x engines).
        """
        steps = kv_end - kv_start
        legs = [OpTiming._fields.index(field) for field in fields]
        outs = [[0.0] * steps for _ in legs]
        if steps <= 0:
            return tuple(outs)
        # Op by op in graph order, one float add per step and op: the
        # same per-step sums as a step loop, bit for bit.
        for _, _, runs, dense in self._decode_walk(model, batch_size,
                                                   kv_start, kv_end):
            for leg, out in zip(legs, outs):
                if dense:
                    # One exactly priced step per kv, in kv order.
                    out[:] = [x + run[2][leg] for x, run in zip(out, runs)]
                    continue
                for lo, hi, t0, t1 in runs:
                    a, b = lo - kv_start, hi - kv_start
                    v0 = t0[leg]
                    if t0 is t1:
                        # Constant run (a kv-independent op, or one
                        # exactly priced step): no interpolation.
                        out[a:b] = [x + v0 for x in out[a:b]]
                        continue
                    d = (t1[leg] - v0) / (hi - 1 - lo)
                    out[a:b] = [x + (v0 + d * i)
                                for i, x in enumerate(out[a:b])]
        comm = self.backend.decode_comm_s(model, batch_size)
        if comm and "time_s" in fields:
            # Per-iteration communication rides every step's wall time.
            out = outs[fields.index("time_s")]
            out[:] = [x + comm for x in out]
        return tuple(outs)

    def _decode_walk(self, model: ModelConfig, batch_size: int,
                     kv_start: int, kv_end: int):
        """Yield ``(op_lo, op_hi, runs, dense)`` for each decode-graph op.

        *op_lo* / *op_hi* are the op at ``kv_start`` and ``kv_end - 1``;
        *runs* and *dense* come from :meth:`_decode_pieces`. Ops come in
        graph order, so both consumers accumulate in the step loop's order.
        """
        steps = kv_end - kv_start
        backend = self.backend
        ops_lo = backend.decode_ops(model, batch_size, kv_start)
        ops_hi = backend.decode_ops(model, batch_size, kv_end - 1)
        # One interior build validates the endpoint-interpolated op
        # reconstruction (see _affine_op_factory); short ranges go
        # through the dense path.
        kv_mid = kv_start + steps // 2
        ops_mid = backend.decode_ops(model, batch_size, kv_mid) \
            if steps > 8 else None
        for index, (op_lo, op_hi) in enumerate(zip(ops_lo, ops_hi)):
            yield (op_lo, op_hi) + self._decode_pieces(
                model, batch_size, index, op_lo, op_hi, kv_start, kv_end,
                kv_mid, ops_mid[index] if ops_mid is not None else None)

    def _decode_pieces(self, model: ModelConfig, batch_size: int,
                       index: int, op_lo: Op, op_hi: Op,
                       kv_start: int, kv_end: int,
                       kv_mid: int, op_mid: Optional[Op]):
        """Cut one op's ``[kv_start, kv_end)`` into best-engine affine runs.

        Returns ``(runs, dense)``. *runs* is the ordered list of
        ``(lo, hi, t_lo, t_hi)`` covering the range, where *t_lo* /
        *t_hi* are the exact :class:`OpTiming` at ``lo`` and ``hi - 1``
        and every step in between is their linear interpolation. A run
        with ``t_lo is t_hi`` is constant: a kv-independent op, or one
        exactly priced step (``hi - lo == 1``). *dense* is True when a
        dimension is not affine in ``kv_len``: every step was then priced
        on its own op.
        """
        if op_lo == op_hi:
            # kv_len-independent op: priced once, one constant run.
            timing = self.time_op(op_lo)
            return [(kv_start, kv_end, timing, timing)], False
        span = kv_end - 1 - kv_start
        trend = _dim_trend(op_lo, op_hi, span)

        def builder_op_at(kv: int) -> Op:
            return self.backend.decode_ops(model, batch_size, kv)[index]

        # Interior ops are reconstructed from the endpoints when the
        # reconstruction provably matches the builder (checked against the
        # builder's own midpoint op), and per residue class of kv_len when
        # the dims are not affine; otherwise every probe rebuilds the full
        # step graph.
        op_at = builder_op_at
        if trend is None:
            op_at = self._residue_op_factory(builder_op_at, kv_start,
                                             kv_end) or builder_op_at
        else:
            synth = self._affine_op_factory(op_lo, op_hi, kv_start, span,
                                            *trend)
            if (synth is not None and op_mid is not None
                    and synth(kv_mid) == op_mid):
                op_at = synth

        memo: Dict[int, OpTiming] = {}

        def timing_at(kv: int) -> OpTiming:
            cached = memo.get(kv)
            if cached is None:
                cached = self.time_op(op_at(kv))
                memo[kv] = cached
            return cached

        runs: list = []
        if trend is None:
            self._exact_steps(timing_at, kv_start, kv_end, runs)
            return runs, True

        # Memory-dominated fast path: GEMM compute time is monotone
        # non-decreasing in every dimension (the gemm_efficiency
        # invariant) and the memory leg is affine increasing, so if every
        # engine's compute leg at the top of the range sits below its
        # memory leg at the bottom, the roofline max() never sees compute
        # anywhere in the range. All candidates then price as parallel
        # affine lines (shared memory leg + constant overhead): one
        # winner, one affine run, no tile cuts or crossovers. This is the
        # common case — decode attention is memory-bound on every
        # platform the paper evaluates. The probe check in _affine_run
        # still verifies the conclusion.
        cand_lo = self._candidates(op_lo)
        cand_hi = self._candidates(op_hi)
        if self._memory_dominated(cand_lo, cand_hi):
            memo.setdefault(kv_start, self._best(cand_lo))
            memo.setdefault(kv_end - 1, self._best(cand_hi))
            self._affine_run(timing_at, kv_start, kv_end, runs)
            return runs, False

        bounds = self._tile_cut_bounds(*trend, kv_start, kv_end)
        for lo, hi in zip(bounds, bounds[1:]):
            self._tile_segment(timing_at, op_at, memo, lo, hi, runs)
        return runs, False

    def _tile_cut_bounds(self, dim_field: Optional[str], slope: int,
                         offset: int,
                         kv_start: int, kv_end: int) -> List[int]:
        """Sorted segment bounds at tile-quantization boundaries.

        Compute time steps up whenever the varying dimension enters a new
        native tile; cutting there leaves segments where every engine's
        legs are affine in ``kv_len``.
        """
        cuts = {kv_start, kv_end}
        if dim_field is not None and slope > 0:
            for engine in self._engines:
                if engine.tile is None:
                    continue
                tile_dim = getattr(engine.tile, dim_field)
                # First block boundary strictly past the start dimension.
                block = (offset - 1) // tile_dim + 1
                while True:
                    # kv at which dim first exceeds block*tile_dim.
                    dim_target = block * tile_dim + 1
                    kv_b = kv_start + -(-(dim_target - offset) // slope)
                    if kv_b >= kv_end:
                        break
                    if kv_b > kv_start:
                        cuts.add(kv_b)
                    block += 1
        return sorted(cuts)

    @staticmethod
    def _affine_op_factory(op_lo: Op, op_hi: Op, kv_start: int, span: int,
                           dim_field: Optional[str], slope: int, offset: int):
        """Build ``op_at(kv)`` reconstructing interior ops from endpoints.

        Decode-step op fields are affine in ``kv_len`` by construction of
        the op graph, so the op at any interior ``kv`` equals the endpoint
        op with its varying fields advanced by exact per-step deltas.
        Returns ``None`` when a field's per-step delta is not exactly
        representable (the caller then falls back to the graph builder);
        the caller additionally cross-checks the factory output against a
        builder-produced midpoint op before trusting it.
        """
        if (op_lo.name != op_hi.name or op_lo.kind is not op_hi.kind
                or op_lo.instances != op_hi.instances
                or op_lo.kernel_launches != op_hi.kernel_launches):
            return None
        deltas = []
        for field in _FLOAT_FIELDS:
            lo_v = getattr(op_lo, field)
            hi_v = getattr(op_hi, field)
            if lo_v != hi_v:
                per_step = (hi_v - lo_v) / span
                if lo_v + per_step * span != hi_v:
                    return None
                deltas.append((_OP_FIELD_NAMES.index(field), lo_v, per_step))
        base = [getattr(op_lo, name) for name in _OP_FIELD_NAMES]
        dim = None if dim_field is None else _OP_FIELD_NAMES.index(dim_field)

        def op_at(kv: int) -> Op:
            step = kv - kv_start
            if step == 0:
                return op_lo
            if step == span:
                return op_hi
            values = base.copy()
            for index, lo_v, per_step in deltas:
                values[index] = lo_v + per_step * step
            if dim is not None:
                values[dim] = offset + slope * step
            return Op(*values)

        return op_at

    def _residue_op_factory(self, builder_op_at, kv_start: int, kv_end: int):
        """Build ``op_at(kv)`` for an op whose dims are not affine in kv.

        A dim floored by a divisor (TP's sharded ``n // degree``) is affine
        on each residue class ``kv = kv_start + r (mod period)``. For the
        smallest period that verifies, each class steps an
        :meth:`_affine_op_factory` in class index between the builder's
        ops at its ends, trusted once it reproduces the builder's op at
        the class midpoint and its neighbour: O(period) graph builds, not
        one per step. ``None`` when no period verifies.
        """
        for period in range(2, _MAX_RESIDUE_PERIOD + 1):
            if kv_end - kv_start < 4 * period:
                break
            classes = []
            for first in range(kv_start, kv_start + period):
                span = (kv_end - 1 - first) // period
                op_a, op_b = (builder_op_at(first),
                              builder_op_at(first + period * span))
                trend = _dim_trend(op_a, op_b, span)
                # Ends and per-step deltas on a 1/256 grid below 2**44 make
                # every interior float exact: equal to the builder's (byte
                # counts over a power-of-two degree), never a rounding.
                ends = [(getattr(op_a, f), getattr(op_b, f))
                        for f in _FLOAT_FIELDS]
                if trend is None or not all(
                        (v * 256).is_integer() and abs(v) < 2 ** 44
                        for lo, hi in ends
                        for v in (lo, hi, (hi - lo) / span)):
                    break
                synth = self._affine_op_factory(op_a, op_b, 0, span, *trend)
                mid = span // 2
                if synth is None or any(
                        synth(j) != builder_op_at(first + period * j)
                        for j in (mid, mid + 1)):
                    break
                classes.append(synth)
            else:
                return lambda kv: classes[(kv - kv_start) % period](
                    (kv - kv_start) // period)
        return None

    def _tile_segment(self, timing_at, op_at, memo: Dict[int, OpTiming],
                      lo: int, hi: int, runs: list) -> None:
        """Cut one segment where every engine's legs are affine in kv_len.

        Within a tile-aligned segment each engine candidate is
        ``max(affine compute, affine memory) + overhead``; every breakpoint
        of the best-engine minimum lies at an intersection of two of those
        lines, so cutting at all pairwise intersections leaves purely
        affine runs.
        """
        count = hi - lo
        if count <= 4:
            self._exact_steps(timing_at, lo, hi, runs)
            return
        span = hi - 1 - lo
        cand_lo = self._candidates(op_at(lo))
        cand_hi = self._candidates(op_at(hi - 1))
        # The endpoint winners double as the affine-run endpoint pricings.
        memo.setdefault(lo, self._best(cand_lo))
        memo.setdefault(hi - 1, self._best(cand_hi))
        lines = []
        for c0, c1 in zip(cand_lo, cand_hi):
            lines.append((c0.compute_s + c0.overhead_s,
                          (c1.compute_s - c0.compute_s) / span))
            lines.append((c0.memory_s + c0.overhead_s,
                          (c1.memory_s - c0.memory_s) / span))
        cuts = {lo, hi}
        for i in range(len(lines)):
            a0, b0 = lines[i]
            for j in range(i + 1, len(lines)):
                a1, b1 = lines[j]
                if b0 == b1:
                    continue
                x = (a1 - a0) / (b0 - b1)
                if 0.0 < x < span:
                    kv_x = lo + int(x)
                    for kv_c in (kv_x, kv_x + 1):
                        if lo < kv_c < hi:
                            cuts.add(kv_c)
        bounds = sorted(cuts)
        for a, b in zip(bounds, bounds[1:]):
            self._affine_run(timing_at, a, b, runs)

    def _affine_run(self, timing_at, lo: int, hi: int, runs: list) -> None:
        """Append ``[lo, hi)`` as one run once a midpoint probe verifies it.

        The probe compares the exact pricer against endpoint
        interpolation; on a miss the run bisects (down to exact steps) —
        the guarantee that the closed form can never silently diverge from
        the per-step loop.
        """
        count = hi - lo
        if count <= 4:
            self._exact_steps(timing_at, lo, hi, runs)
            return
        t_lo, t_hi = timing_at(lo), timing_at(hi - 1)
        fields_lo = (t_lo.time_s, t_lo.compute_s, t_lo.memory_s)
        fields_hi = (t_hi.time_s, t_hi.compute_s, t_hi.memory_s)
        span = count - 1
        probe = lo + span // 2
        t_p = timing_at(probe)
        frac = (probe - lo) / span
        for got, f0, f1 in zip((t_p.time_s, t_p.compute_s, t_p.memory_s),
                               fields_lo, fields_hi):
            want = f0 + (f1 - f0) * frac
            if abs(got - want) > 1e-11 * max(abs(got), abs(want), 1e-30):
                mid = lo + count // 2
                self._affine_run(timing_at, lo, mid, runs)
                self._affine_run(timing_at, mid, hi, runs)
                return
        runs.append((lo, hi, t_lo, t_hi))

    @staticmethod
    def _exact_steps(timing_at, lo: int, hi: int, runs: list) -> None:
        """One exactly priced single-step run per kv (short or irregular)."""
        for kv in range(lo, hi):
            timing = timing_at(kv)
            runs.append((kv, kv + 1, timing, timing))


@dataclasses.dataclass(frozen=True)
class DecodeRangeTiming:
    """Aggregate pricing of a whole decode phase (all steps summed).

    Mirrors the sums a per-step loop would accumulate into
    :class:`~repro.engine.results.PhaseStats`.

    Attributes:
        steps: Decode steps priced.
        time_s: Total phase time.
        compute_s / memory_s: Busy-time sums of the chosen rooflines.
        flops: Total FLOPs executed.
        weight_bytes / activation_bytes / kv_read_bytes / kv_write_bytes:
            Memory traffic by category.
        op_times: Total time per operator name.
    """

    steps: int
    time_s: float
    compute_s: float
    memory_s: float
    flops: float
    weight_bytes: float
    activation_bytes: float
    kv_read_bytes: float
    kv_write_bytes: float
    op_times: Dict[str, float]
