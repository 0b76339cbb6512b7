"""Fluid/mean-field steady-state solver for instant cluster what-ifs.

The last rung of the raw-speed ladder: per-step simulation, closed-form
fast-forward, sharded execution — and now no event loop at all. Given a
:class:`~repro.cluster.config.ClusterConfig`, an arrival rate, and a
request-shape (or class) mix, :func:`solve` computes the steady state of
the fleet analytically: per-replica batch-occupancy distribution,
throughput, queueing delay, TTFT/TPOT percentiles, SLO attainment,
goodput, and $/Mtok — versus seconds-to-minutes for the discrete-event
simulator. Once the cost tables are warm, a class-less solve takes
about 0.4 ms and a tiered one about 1.7 ms when its fixed point
converges, or about 18 ms when it runs all 200 iterations to the cap;
a capped fixed point that cycles stops at its first repeated state
(measured on a shared 2-vCPU x86 host; see ``docs/fluid.md``).

**The model.** Each tier — a group of interchangeable replicas with one
(model, platform, backend) triple — is a pooled birth–death chain in the
total number of in-system requests ``n``:

* A replica serving a batch of ``b`` sequences advances all of them one
  token per fused iteration, so ``b`` requests complete every
  ``b * Tp + D(b)`` seconds, where ``Tp`` is the mixture-mean prefill
  (prefills run exclusively) and ``D(b)`` is the mixture-mean
  whole-batch decode demand of one request at occupancy ``b`` — the
  exact expectation of the piecewise-affine prefix curves in
  :class:`~repro.engine.stepcost.DecodeCostTable` over the request-shape
  distribution (:meth:`~repro.engine.stepcost.DecodeCostTable.
  expected_decode_time`). The per-request spacing at occupancy ``b`` is
  therefore ``S(b) = Tp + D(b) / b``, and a tier of ``k`` replicas
  completes requests at rate ``min(n, k) / S(n / min(n, k))`` —
  batching efficiency enters through ``S`` falling with occupancy.
* Above the full-batch state the queue is geometric with ratio
  ``rho = rate * S(B) / k`` — the tier's load; ``k / S(B)`` is its
  capacity.  Queue waits get an M/G/k-style correction: the M/M mean
  wait is scaled by ``(1 + cv^2) / 2`` with ``cv^2`` the service-demand
  variability of the shape mixture, and the conditional wait keeps an
  exponential tail (so TTFT percentiles are closed-form).
* TPOT is the token-weighted mean inter-token gap over the occupancy
  distribution, inflated by the prefill-stall share ``1 / (1 - rate *
  Tp / k)`` — decode gaps stretch when admissions interpose exclusive
  prefills.

**Router composition.** With a class mix the solver reproduces the
:class:`~repro.cluster.tiering.TieredRouter` flow logic as a damped
fixed point over class→tier admission shares: each class starts at its
home tier (cheapest eligible tier whose unloaded service clears the
class bar — the same rule, priced off the same tables) and the share
that would see its TTFT bar broken spills upward, until flows converge.
Without classes, flows split in proportion to tier capacity — exact for
homogeneous fleets under round-robin/JSQ, and the resource-pooled chain
approximates join-shortest-queue balancing within a tier.

**Validity envelope** (see ``docs/fluid.md`` and the recorded error
envelope in ``BENCH_cluster.json``): in the stable regime (``rho <=
0.85``) throughput, goodput, and $/Mtok track the exact simulator to
~2%; near saturation (``0.85 < rho < 1``) queue-length statistics grow
sensitive to arrival details and errors widen; overloaded tiers
(``rho >= 1``) are *flagged* — throughput pins to capacity, waits are
infinite, attainment is zero — rather than silently extrapolated. TTFT
tail percentiles inherit the M/G/k approximation and are indicative,
not bit-accurate; use the simulator to confirm a winner
(:func:`repro.optim.advisor.recommend_fleet` automates that).
"""

import dataclasses
import functools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.cost import price_rate
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import dollars_per_mtok
from repro.cluster.node import ReplicaNode
from repro.cluster.tiering import Tier, tier_label
from repro.serving.arrivals import _spec_ranges
from repro.serving.slo import SLO
from repro.workloads.classes import REQUEST_CLASSES, MixClassifier

#: Load-regime labels, in increasing order of distress.
REGIME_STABLE = "stable"
REGIME_NEAR_SATURATION = "near-saturation"
REGIME_OVERLOADED = "overloaded"

#: Documented edge of the validated envelope: below this load the
#: recorded error bounds apply; above it, expect drift.
STABLE_RHO = 0.85

_FIXED_POINT_DAMPING = 0.5
_FIXED_POINT_TOL = 1e-4
_FIXED_POINT_MAX_ITERS = 200
#: Prefill-stall inflation is clamped so a prefill-dominated overload
#: degrades gracefully instead of dividing by ~zero.
_MAX_PREFILL_SHARE = 0.95
#: TTFT quantiles every :class:`FluidReport` carries.
TTFT_PERCENTILES = (0.5, 0.9, 0.99)
#: Relative width at which :func:`saturation_rate`'s bisection stops.
_SATURATION_REL_TOL = 1e-4


def _regime(rho: float) -> str:
    if rho >= 1.0:
        return REGIME_OVERLOADED
    if rho > STABLE_RHO:
        return REGIME_NEAR_SATURATION
    return REGIME_STABLE


# -- workload resolution ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Flow:
    """One resolved request class: shape ranges, share, and its bar."""

    name: str
    share: float
    input_range: Tuple[int, int]
    output_range: Tuple[int, int]
    slo: SLO
    min_model_params: float

    # Cached: every station solve reads them, and the fields are frozen.
    @functools.cached_property
    def mean_input(self) -> float:
        lo, hi = self.input_range
        return (lo + hi) / 2.0

    @functools.cached_property
    def mean_output(self) -> float:
        lo, hi = self.output_range
        return (lo + hi) / 2.0

    @functools.cached_property
    def ranges(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """``(input_range, output_range)``: the shape a demand is keyed by."""
        return (self.input_range, self.output_range)

    @functools.cached_property
    def mean_steps(self) -> float:
        """Expected decode iterations (the first token comes from prefill)."""
        return max(0.0, self.mean_output - 1.0)


def _resolve_flows(mix, spec, slo) -> List[_Flow]:
    if mix is None:
        input_range, output_range = _spec_ranges(spec)
        return [_Flow(name="all", share=1.0,
                      input_range=tuple(input_range),
                      output_range=tuple(output_range),
                      slo=slo if slo is not None else SLO(),
                      min_model_params=0.0)]
    # The classifier owns the mix rule, so the fluid ranking refuses
    # every mix that exact confirmation would.
    MixClassifier(mix=tuple(mix))
    total = sum(share for _, share in mix)
    flows = []
    for name, share in mix:
        if share <= 0:
            continue
        rc = REQUEST_CLASSES[name]
        flows.append(_Flow(name=name, share=share / total,
                           input_range=tuple(rc.input_len_range),
                           output_range=tuple(rc.output_len_range),
                           slo=rc.slo,
                           min_model_params=rc.min_model_params))
    return flows


# -- stations --------------------------------------------------------------


class _Station:
    """One tier of interchangeable replicas, with memoized demands.

    ``states`` holds, for each pooled state ``n`` in ``1..top`` (``top =
    k*B``), the tuple ``(busy, q, lo, hi, frac)``: busy replicas,
    per-replica occupancy, and its bracketing batch sizes with the
    interpolation weight — the grid every chain quantity reads. State 0
    (nothing busy) is implicit.
    """

    def __init__(self, nodes: Sequence[ReplicaNode]):
        node = nodes[0]
        self.tier: Tier = node.tier
        self.count = len(nodes)
        self.table = node.cost_table
        self.max_batch = node.max_batch
        self.param_count = node.model.param_count()
        self.price_usd = sum(price_rate(n.platform.name, n.price_usd)
                             for n in nodes)
        big_b = self.max_batch
        self.top = self.count * big_b
        states = []
        for n in range(1, self.top + 1):
            busy = min(n, self.count)
            q = n / busy  # always within [1, B]
            lo = int(math.floor(q))
            states.append((busy, q, lo, min(lo + 1, big_b), q - lo))
        self.states: Tuple[Tuple[int, float, int, int, float], ...] = \
            tuple(states)
        self._demands: Dict[tuple, tuple] = {}

    def prefill_s(self, flow: _Flow) -> float:
        # Includes backend comm time (TP allreduce, hybrid GPU leg):
        # DecodeCostTable.prefill_time folds prefill_comm_s in, so
        # hybrid stations price their PCIe/GPU prefill here for free.
        return self.table.expected_prefill_time(flow.input_range)

    def demand(self, flow: _Flow) -> tuple:
        """``(E[prefill], (0, D(1), ..., D(B)), (x, E[x^2]))`` for a flow.

        ``x`` is the per-slot service demand at full batch, and
        ``E[x^2]`` its second moment under the affine shape
        approximation: within a class the demand varies chiefly with the
        output length (uniform, known variance) at the class's per-step
        slope. The station solve mixes them across classes.

        Filled on the flow's first solve here, never by a probe: the
        cost curves interpolate between the chunk ends they were
        extended to, so the order curves are first read in fixes their
        last bits (and every later exact simulation's).
        """
        key = flow.ranges
        cached = self._demands.get(key)
        if cached is None:
            decode = tuple([0.0] + [
                self.table.expected_decode_time(b, *key)
                for b in range(1, self.max_batch + 1)])
            prefill = self.prefill_s(flow)
            per_slot = decode[-1] / self.max_batch
            x = prefill + per_slot
            var = 0.0
            if flow.mean_steps > 0.0:
                slope = per_slot / flow.mean_steps
                lo, hi = flow.output_range
                n = hi - lo + 1
                var = slope * slope * (n * n - 1) / 12.0
            cached = self._demands[key] = (prefill, decode,
                                           (x, x * x + var))
        return cached

    def capacity(self, flows: Sequence[_Flow]) -> float:
        """Full-batch request capacity under the flows' mix shares.

        Reads ``D(B)`` alone: filling whole demand vectors here would
        extend the smaller-batch curves before any solve does.
        """
        prefill = sum(f.share * self.prefill_s(f) for f in flows)
        decode = sum(f.share * self.table.expected_decode_time(
            self.max_batch, f.input_range, f.output_range) for f in flows)
        return self.count / (prefill + decode / self.max_batch)

    def per_token_s(self, flow: _Flow) -> float:
        """Unloaded per-token decode — the router's home-tier probe.

        Mirrors :meth:`~repro.cluster.node.ReplicaNode.decode_cost_s`
        (single sequence, mid-KV iteration cost) at the class's mean
        shape, so fluid home tiers agree with the router's.
        """
        mean_out = int(round(flow.mean_output))
        if mean_out <= 1:
            return 0.0
        mid_kv = int(round(flow.mean_input)) + mean_out // 2
        return self.table.step_time(1, max(1, mid_kv))


def _group_stations(config: ClusterConfig) -> List[_Station]:
    fleet = config.build_fleet()
    by_tier: Dict[Tier, List[ReplicaNode]] = {}
    for node in fleet:
        by_tier.setdefault(node.tier, []).append(node)
    return [_Station(nodes) for nodes in by_tier.values()]


# -- the per-station chain -------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ClassAtStation:
    """Per-(class, station) steady-state latency components."""

    flow: _Flow
    rate_per_s: float
    t0_s: float          # deterministic TTFT floor: boundary wait + prefill
    p_wait: float
    theta: float         # exponential wait-tail rate (inf when no wait)
    mean_ttft_s: float
    tpot_s: float
    attainment: float
    overloaded: bool


def _tail_cdf(p_wait: float, theta: float, t0: float, t: float) -> float:
    """P(TTFT <= t): a floor *t0*, then a *p_wait* wait tail at rate *theta*."""
    if t < t0:
        return 0.0
    if not math.isfinite(theta):
        return 1.0
    return 1.0 - p_wait * math.exp(-theta * (t - t0))


class _StationSolution:
    """Solved chain for one station under a given flow assignment.

    Construction solves what the tiered cascade reads on every
    fixed-point iteration — ``rho``, capacity, the wait tail
    (``p_wait``, ``theta``) and the admission-boundary wait — plus the
    station totals. The occupancy histogram, ``mean_batch`` and the
    per-class records are built on first access, which only the final
    report makes.
    """

    def __init__(self, station: _Station, flows: List[Tuple[_Flow, float]]):
        self.station = station
        self.flows = []
        total = 0  # an idle station's rate stays the int 0, as sum() gave
        for flow, rate in flows:
            if rate > 0.0:
                self.flows.append((flow, rate))
                total += rate
        self.rate_per_s = total
        self.capacity_req_per_s = 0.0
        if not self.flows:
            self._solve_idle()
        else:
            self._solve()

    def _solve_idle(self) -> None:
        # No flow, so no demand mix to price a capacity with: it stays
        # 0, and the whole occupancy sits in the empty state.
        station = self.station
        self.rho = 0.0
        self.regime = REGIME_STABLE
        self.utilization = 0.0
        self._raw = [1.0] + [0.0] * station.top
        self._norm = 1.0
        self.p_wait = 0.0
        self.mean_wait_s = 0.0
        self.theta = math.inf
        self.throughput_tokens_per_s = 0.0
        self.tpot_s = 0.0

    def _solve(self) -> None:
        # Each running sum below adds the same terms, in the same order,
        # as a left-to-right sum() over a list of them, so fusing the
        # reductions into few loops moves no bit (CPython 3.12's sum()
        # compensates, so there the last bits differ; see "Checking bit
        # identity" in docs/fluid.md).
        station = self.station
        k, top, states = station.count, station.top, station.states
        rate = self.rate_per_s

        # Mix the flows' demands: prefill, D(b) (decode[b], b >= 1),
        # decode steps, output tokens, and the per-slot service moments.
        prefill = steps = mean_out = mean_x = second_x = 0.0
        decode = None
        demands = station._demands
        for flow, flow_rate in self.flows:
            w = flow_rate / rate
            cached = demands.get(flow.ranges)
            if cached is None:
                cached = station.demand(flow)
            flow_prefill, flow_decode, (x, x2) = cached
            prefill += w * flow_prefill
            if decode is None:
                decode = [w * d for d in flow_decode]
            else:
                decode = [a + w * d for a, d in zip(decode, flow_decode)]
            steps += w * flow.mean_steps
            mean_out += w * flow.mean_output
            mean_x += w * x
            second_x += w * x2
        self._steps = steps

        # Mixture demand at pooled state n: S = prefill + mixed[n] / q
        # is the completion spacing, mixed[n] / steps the token gap.
        _, q_top, lo, hi, frac = states[-1]
        m_top = decode[lo] + (decode[hi] - decode[lo]) * frac
        capacity = k / (prefill + m_top / q_top)
        self.capacity_req_per_s = capacity
        rho = rate / capacity
        self.rho = rho
        self.regime = _regime(rho)
        overloaded = rho >= 1.0
        served = min(rate, capacity)
        self.throughput_tokens_per_s = served * mean_out

        token_norm = gap_sum = 0.0
        # Pooled birth-death chain over n in [0, k*B]; geometric tail.
        if overloaded:
            p_wait, mean_wait = 1.0, math.inf
            self.utilization = 1.0
            if steps > 0.0:
                token_norm = 1.0
                gap_sum = 1.0 * (m_top / steps)
        else:
            # Accumulate the chain in log-space: the un-normalized
            # running product overflows for large fleets (k*B in the
            # thousands) long before normalization.
            log = math.log
            mixed = [0.0]
            logs = [0.0]
            acc = 0.0
            for busy, q, lo, hi, frac in states:
                low = decode[lo]
                m = low + (decode[hi] - low) * frac
                mixed.append(m)
                acc += log(rate / (busy / (prefill + m / q)))
                logs.append(acc)
            self._mixed = mixed
            peak = max(logs)
            exp = math.exp
            raw = self._raw = [exp(v - peak) for v in logs]
            raw_top = raw[top]
            tail = raw_top * rho / (1.0 - rho)  # mass beyond n = k*B
            norm = self._norm = sum(raw) + tail
            p_wait = (raw_top / (1.0 - rho)) / norm
            queue_len = (raw_top / norm) * rho / (1.0 - rho) ** 2
            mean_wait = queue_len / rate
            # M/G/k-style correction: scale the M/M wait by the squared
            # CV of the per-slot service demand across the mixture
            # (each flow brings its own moments, see _Station.demand).
            cv2 = 0.0
            if mean_x > 0.0:
                cv2 = max(0.0, second_x / (mean_x * mean_x) - 1.0)
            mean_wait *= (1.0 + cv2) / 2.0

            # Occupancy mass, utilization and the token-weighted gap in
            # one pass: states produce tokens at n / gap, so heavier
            # batches dominate what a *token* experiences.
            mass = raw[0] / norm
            busy_sum = 0.0
            n = 0
            for r, (busy, _, _, _, _), m in zip(raw[1:], states, mixed[1:]):
                n += 1
                p = r / norm
                mass += p
                busy_sum += p * busy / k
                if steps > 0.0 and p > 0.0:
                    g = m / steps
                    if g > 0.0:
                        w = p * n / g
                        token_norm += w
                        gap_sum += w * g
            self.utilization = min(1.0, busy_sum)
            self._tail_w = None
            tail_mass = 1.0 - mass
            if steps > 0.0 and tail_mass > 0.0:
                g = m_top / steps
                if g > 0.0:
                    w = self._tail_w = tail_mass * top / g
                    token_norm += w
                    gap_sum += w * g
        self.p_wait = p_wait
        self.mean_wait_s = mean_wait
        theta = math.inf if mean_wait <= 0.0 \
            else (0.0 if not math.isfinite(mean_wait)
                  else p_wait / mean_wait)
        self.theta = theta
        self._token_norm = token_norm

        prefill_share = min(served / k * prefill, _MAX_PREFILL_SHARE)
        self._inflation = 1.0 / (1.0 - prefill_share)
        mean_gap = gap_sum / token_norm if token_norm > 0.0 else 0.0
        self.tpot_s = mean_gap * self._inflation

        # Admission-boundary wait: residual of the in-flight iteration
        # plus the residual of an in-flight exclusive prefill.
        self.boundary_s = self.utilization * mean_gap / 2.0 \
            + (served / k * prefill) * prefill / 2.0

    @functools.cached_property
    def _pi(self) -> List[float]:
        """Stationary probability of each pooled state ``n``."""
        norm = self._norm
        return [r / norm for r in self._raw]

    @functools.cached_property
    def _token_states(self) -> List[Tuple[float, int]]:
        """``(weight, n)`` per token-producing state, as the solve summed.

        Read only for a stable station whose mixture decodes.
        """
        steps = self._steps
        token_states = []
        for n, (p, m) in enumerate(zip(self._pi, self._mixed)):
            g = m / steps
            if n > 0 and p > 0.0 and g > 0.0:
                token_states.append((p * n / g, n))
        if self._tail_w is not None:
            token_states.append((self._tail_w, self.station.top))
        return token_states

    @functools.cached_property
    def occupancy(self) -> Tuple[float, ...]:
        """Per-replica batch-occupancy histogram (the tail sits at B)."""
        station = self.station
        k, big_b = station.count, station.max_batch
        if self.rho >= 1.0:
            return tuple([0.0] * big_b + [1.0])
        occupancy = [0.0] * (big_b + 1)
        pi = self._pi
        if pi[0] > 0.0:
            occupancy[0] += pi[0]
        for p, (busy, _, lo, hi, frac) in zip(pi[1:], station.states):
            if p <= 0.0:
                continue
            occupancy[0] += p * (k - busy) / k
            occupancy[lo] += p * (busy / k) * (1.0 - frac)
            occupancy[hi] += p * (busy / k) * frac
        return tuple(occupancy)

    @functools.cached_property
    def mean_batch(self) -> float:
        return sum(b * p for b, p in enumerate(self.occupancy))

    @functools.cached_property
    def classes(self) -> List[_ClassAtStation]:
        """Per-class latency records, with each class's own TPOT gaps."""
        if not self.flows:
            return []
        station = self.station
        token_norm, inflation = self._token_norm, self._inflation
        classes = []
        for flow, rate_c in self.flows:
            flow_prefill, d, _ = station.demand(flow)
            t0 = self.boundary_s + flow_prefill
            if self.rho >= 1.0:
                classes.append(_ClassAtStation(
                    flow=flow, rate_per_s=rate_c, t0_s=t0, p_wait=1.0,
                    theta=0.0, mean_ttft_s=math.inf, tpot_s=self.tpot_s,
                    attainment=0.0, overloaded=True))
                continue
            flow_steps = flow.mean_steps
            if flow_steps > 0.0 and token_norm > 0.0:
                gaps = []  # (w, this class's gap) per token state
                for w, n in self._token_states:
                    _, _, lo, hi, frac = station.states[n - 1]
                    gaps.append((w, (d[lo] + (d[hi] - d[lo]) * frac)
                                 / flow_steps))
                tpot_c = sum(w * g for w, g in gaps) / token_norm * inflation
                tpot_ok = sum(w for w, g in gaps
                              if g * inflation <= flow.slo.tpot_s) \
                    / token_norm
            else:
                tpot_c = 0.0
                tpot_ok = 1.0
            ttft_ok = _tail_cdf(self.p_wait, self.theta, t0,
                                flow.slo.ttft_s)
            classes.append(_ClassAtStation(
                flow=flow, rate_per_s=rate_c, t0_s=t0, p_wait=self.p_wait,
                theta=self.theta, mean_ttft_s=t0 + self.mean_wait_s,
                tpot_s=tpot_c, attainment=ttft_ok * tpot_ok,
                overloaded=False))
        return classes


# -- flow assignment -------------------------------------------------------


def _uniform_flows(stations: List[_Station], flows: List[_Flow],
                   rate: float) -> List[List[Tuple[_Flow, float]]]:
    """Split every class across all stations by full-batch capacity.

    Exact for homogeneous fleets under round-robin/JSQ; for mixed
    non-tiered fleets it equalizes load, approximating the balancing
    routers.
    """
    caps = [station.capacity(flows) for station in stations]
    total = sum(caps)
    return [[(f, rate * f.share * cap / total) for f in flows]
            for cap in caps]


def _order_stations(stations: List[_Station]) -> List[int]:
    """Router tier order: price ascending, faster decode breaking ties."""
    def key(i: int) -> tuple:
        station = stations[i]
        return (station.price_usd / station.count,
                station.table.step_time(1, 128), station.tier)
    return sorted(range(len(stations)), key=key)


def _spill_iterates(stations: List[_Station], flows: List[_Flow],
                    rate: float) -> Iterator[Tuple[tuple, List[float],
                                                   float]]:
    """The damped spill cascade, one iteration per item, without end.

    Mirrors the :class:`~repro.cluster.tiering.TieredRouter`: each class
    homes on the cheapest eligible tier whose unloaded service clears
    its bar, and the share of arrivals that would see the TTFT bar
    broken (the stationary spill probability) cascades to pricier
    eligible tiers; saturated leftovers spread capacity-proportionally,
    matching the router's earliest-finish degrade.

    Yields ``(state, spill_rate, delta)``: the admission shares after
    the iteration (``state[i][f]`` is the rate of class *f* routed to
    station *i*), each class's spilled rate, and the largest share
    change. The next iteration is a pure function of ``state``.
    """
    order = _order_stations(stations)
    # probe[i][f]: the prefill class f pays at station i.
    probe = [[station.prefill_s(flow) for flow in flows]
             for station in stations]
    eligible: List[List[int]] = []  # per flow, in router order
    home: List[int] = []            # per flow, a position in eligible
    for f, flow in enumerate(flows):
        elig = [i for i in order
                if stations[i].param_count >= flow.min_model_params]
        if not elig:  # tier outage semantics: fall below the floor
            elig = list(order)
        eligible.append(elig)
        pos = next((p for p, i in enumerate(elig)
                    if probe[i][f] <= flow.slo.ttft_s
                    and stations[i].per_token_s(flow) <= flow.slo.tpot_s),
                   None)
        if pos is None:
            pos = min(range(len(elig)),
                      key=lambda p: (stations[elig[p]].per_token_s(flow), p))
        home.append(pos)

    # Per class: its offered rate, its TTFT bar, the tiers it tries in
    # order (its home tier, then the pricier spills) and its eligible
    # tiers for the saturated spread.
    routes = [(f, rate * flow.share, flow.slo.ttft_s, eligible[f][home[f]:],
               eligible[f]) for f, flow in enumerate(flows)]
    initial = [[0.0] * len(flows) for _ in stations]
    for f, offered, _, path, _ in routes:
        initial[path[0]][f] = offered
    current = tuple(map(tuple, initial))
    # A station's solution is a pure function of (station, flow rates);
    # capped fixed points that enter a cycle revisit assignments.
    memo: Dict[tuple, _StationSolution] = {}
    keep = 1.0 - _FIXED_POINT_DAMPING

    while True:
        solutions = []
        for i, row in enumerate(current):
            key = (i, row)
            sol = memo.get(key)
            if sol is None:
                sol = memo[key] = _StationSolution(stations[i],
                                                   list(zip(flows, row)))
            solutions.append(sol)
        proposal = [[0.0] * len(flows) for _ in stations]
        spill_rate = [0.0] * len(flows)
        for f, remaining, ttft, path, elig in routes:
            home_i = path[0]
            for i in path:
                if remaining <= 0.0:
                    break
                sol = solutions[i]
                if sol.rho >= 1.0:
                    p_stay = 0.0
                else:
                    # A class already here also waits out the admission
                    # boundary; an absent one probes with the station's
                    # present wait statistics.
                    t0 = probe[i][f]
                    if current[i][f] > 0.0:
                        t0 = sol.boundary_s + t0
                    p_stay = _tail_cdf(sol.p_wait, sol.theta, t0, ttft)
                take = remaining * p_stay
                proposal[i][f] += take
                if i != home_i:
                    spill_rate[f] += take
                remaining -= take
            if remaining > 1e-12:
                # Every eligible tier saturated for this class: spread
                # the rest capacity-proportionally (earliest-finish).
                # An idle tier's capacity is 0 and falls back to its
                # replica count, which is not in req/s (see ROADMAP).
                caps = [solutions[i].capacity_req_per_s
                        if solutions[i].capacity_req_per_s > 0.0
                        else stations[i].count for i in elig]
                total = sum(caps)
                for i, cap in zip(elig, caps):
                    extra = remaining * cap / total
                    proposal[i][f] += extra
                    if i != home_i:
                        spill_rate[f] += extra

        damped = tuple([tuple([keep * old + _FIXED_POINT_DAMPING * prop
                               for old, prop in zip(row, new_row)])
                        for row, new_row in zip(current, proposal)])
        delta = max([abs(new - old) for new_row, row in zip(damped, current)
                     for new, old in zip(new_row, row)])
        current = damped
        yield current, spill_rate, delta


def _tiered_flows(stations: List[_Station], flows: List[_Flow],
                  rate: float
                  ) -> Tuple[List[List[Tuple[_Flow, float]]],
                             int, bool, Dict[str, float]]:
    """Damped fixed point over class→tier admission shares.

    Runs :func:`_spill_iterates` until the shares move by at most the
    tolerance, or for ``_FIXED_POINT_MAX_ITERS`` iterations. A capped
    run that comes back to an earlier state exactly has entered a
    cycle: every later iteration replays it and none can converge
    (each of its steps already failed the tolerance). So the loop stops
    there and returns the cycle's phase at the cap — the state, spill
    rates and iteration count a straight run to the cap would end on.
    """
    cap = _FIXED_POINT_MAX_ITERS
    tolerance = _FIXED_POINT_TOL * max(rate, 1e-12)
    seen: Dict[tuple, int] = {}   # state after iteration j -> j
    states: List[tuple] = [()]    # states[j]: the state after iteration j
    spills: List[List[float]] = [[]]
    converged = False
    iterations = 0
    current: tuple = ()
    spill_rate: List[float] = []
    for iterations, (current, spill_rate, delta) in zip(
            range(1, cap + 1), _spill_iterates(stations, flows, rate)):
        if delta <= tolerance:
            converged = True
            break
        states.append(current)
        spills.append(spill_rate)
        first = seen.setdefault(current, iterations)
        if first != iterations:
            period = iterations - first
            current = states[first + (cap - first) % period]
            spill_rate = spills[first + 1 + (cap - first - 1) % period]
            iterations = cap
            break
    return ([list(zip(flows, row)) for row in current], iterations,
            converged, {f.name: r for f, r in zip(flows, spill_rate)})


# -- reports ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StationReport:
    """Steady state of one tier under the solved admission shares."""

    tier: Tier
    replicas: int
    rate_per_s: float
    capacity_req_per_s: float
    rho: float
    regime: str
    utilization: float
    mean_batch: float
    occupancy: Tuple[float, ...]
    p_wait: float
    mean_wait_s: float
    tpot_s: float
    throughput_tokens_per_s: float
    class_rates: Dict[str, float]

    @property
    def label(self) -> str:
        return tier_label(self.tier)


@dataclasses.dataclass(frozen=True)
class ClassReport:
    """One request class aggregated across the tiers that serve it."""

    name: str
    share: float
    rate_per_s: float
    attainment: float
    goodput_tokens_per_s: float
    mean_ttft_s: float
    tpot_s: float
    spill_rate_per_s: float
    tier_rates: Dict[str, float]


@dataclasses.dataclass(frozen=True)
class FluidReport:
    """The fleet's analytic steady state at one (config, rate, mix) point."""

    rate_per_s: float
    throughput_tokens_per_s: float
    goodput_tokens_per_s: float
    attainment: float
    mean_ttft_s: float
    ttft_percentiles: Dict[float, float]
    tpot_s: float
    capacity_req_per_s: float
    max_rho: float
    regime: str
    fleet_price_usd: float
    dollars_per_mtok: float
    stations: Tuple[StationReport, ...]
    classes: Tuple[ClassReport, ...]
    iterations: int
    converged: bool
    label: Optional[str] = None

    @property
    def overloaded(self) -> bool:
        return self.regime == REGIME_OVERLOADED


def _mixture_quantile(components: List[Tuple[float, _ClassAtStation]],
                      q: float) -> float:
    """Quantile of the TTFT mixture across (class, station) components."""
    total = sum(w for w, _ in components)
    if total <= 0.0:
        return 0.0
    reachable = sum(w for w, c in components if not c.overloaded) / total
    if reachable < q:
        return math.inf
    lo = min(c.t0_s for _, c in components if not c.overloaded)
    hi = max(c.t0_s for _, c in components if not c.overloaded) + 1e-9

    # An overloaded component's CDF is 0 everywhere: it would add
    # w * 0.0, which leaves the nonnegative running sum unchanged.
    parts = [(w, c.p_wait, c.theta, c.t0_s)
             for w, c in components if not c.overloaded]

    def cdf(t: float) -> float:
        acc = 0.0
        for w, p_wait, theta, t0 in parts:
            acc += w * _tail_cdf(p_wait, theta, t0, t)
        return acc / total

    for _ in range(200):
        if cdf(hi) >= q:
            break
        hi *= 2.0
    else:
        return math.inf
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if cdf(mid) >= q:
            hi = mid
        else:
            lo = mid
    return hi


# -- public API ------------------------------------------------------------


def solve(config: ClusterConfig, rate_per_s: float, *,
          mix: Optional[Sequence[Tuple[str, float]]] = None,
          spec: Optional[object] = None,
          slo: Optional[SLO] = None,
          router: str = "auto",
          label: Optional[str] = None,
          _stations: Optional[List[_Station]] = None) -> FluidReport:
    """Solve a fleet's steady state analytically at one operating point.

    Args:
        config: The fleet, as the simulator declares it.
        rate_per_s: Fleet-wide Poisson arrival rate.
        mix: Optional class mix ``((name, share), ...)`` summing to 1 —
            engages the tiered flow fixed point with per-class SLOs from
            :data:`~repro.workloads.classes.REQUEST_CLASSES`.
        spec: Shape spec for class-less workloads (any object with
            ``input_len_range`` / ``output_len_range``; defaults match
            :func:`repro.serving.arrivals.iter_poisson_arrivals`).
        slo: Latency bar for class-less workloads (default stock
            :class:`~repro.serving.slo.SLO`).
        router: ``auto`` (tiered iff a mix is given), ``uniform``
            (capacity-proportional split), or ``tiered``.

    Returns:
        A :class:`FluidReport`. Overload is *flagged* — throughput pins
        to capacity, waits are infinite, attainment zero — never
        silently extrapolated.
    """
    if rate_per_s <= 0.0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    flows = _resolve_flows(mix, spec, slo)
    stations = _stations if _stations is not None \
        else _group_stations(config)
    if not stations:
        raise ValueError("the cluster config has no replicas")

    if router == "auto":
        router = "tiered" if mix is not None else "uniform"
    if router == "tiered":
        table, iterations, converged, spill = \
            _tiered_flows(stations, flows, rate_per_s)
    elif router == "uniform":
        table = _uniform_flows(stations, flows, rate_per_s)
        iterations, converged = 1, True
        spill = {f.name: 0.0 for f in flows}
    else:
        raise ValueError(f"unknown fluid router {router!r}; "
                         f"expected auto, uniform, or tiered")

    solutions = [_StationSolution(station, flow_list)
                 for station, flow_list in zip(stations, table)]

    station_reports = []
    components: List[Tuple[float, _ClassAtStation]] = []
    per_class: Dict[str, List[_ClassAtStation]] = {f.name: [] for f in flows}
    throughput = 0.0
    max_rho = 0.0
    for sol in solutions:
        station = sol.station
        throughput += sol.throughput_tokens_per_s
        if sol.rate_per_s > 0.0:
            max_rho = max(max_rho, sol.rho)
        station_reports.append(StationReport(
            tier=station.tier, replicas=station.count,
            rate_per_s=sol.rate_per_s,
            capacity_req_per_s=sol.capacity_req_per_s,
            rho=sol.rho, regime=sol.regime,
            utilization=sol.utilization, mean_batch=sol.mean_batch,
            occupancy=sol.occupancy, p_wait=sol.p_wait,
            mean_wait_s=sol.mean_wait_s, tpot_s=sol.tpot_s,
            throughput_tokens_per_s=sol.throughput_tokens_per_s,
            class_rates={c.flow.name: c.rate_per_s for c in sol.classes}))
        for entry in sol.classes:
            components.append((entry.rate_per_s, entry))
            per_class[entry.flow.name].append(entry)

    class_reports = []
    goodput = 0.0
    attained = 0.0
    ttft_num = 0.0
    tpot_num = 0.0
    for flow in flows:
        entries = per_class[flow.name]
        rate_c = sum(e.rate_per_s for e in entries)
        if rate_c <= 0.0:
            continue
        att = sum(e.rate_per_s * e.attainment for e in entries) / rate_c
        mean_ttft = sum(e.rate_per_s * e.mean_ttft_s for e in entries) \
            / rate_c
        tpot = sum(e.rate_per_s * e.tpot_s for e in entries) / rate_c
        good = rate_c * att * flow.mean_output
        goodput += good
        attained += rate_c * att
        ttft_num += rate_c * mean_ttft
        tpot_num += rate_c * tpot
        class_reports.append(ClassReport(
            name=flow.name, share=flow.share, rate_per_s=rate_c,
            attainment=att, goodput_tokens_per_s=good,
            mean_ttft_s=mean_ttft, tpot_s=tpot,
            spill_rate_per_s=spill.get(flow.name, 0.0),
            tier_rates={tier_label(s.station.tier):
                        next((c.rate_per_s for c in s.classes
                              if c.flow.name == flow.name), 0.0)
                        for s in solutions}))

    fleet_price = sum(s.price_usd for s in stations)
    capacity = sum(s.capacity_req_per_s for s in solutions
                   if s.capacity_req_per_s > 0.0)

    return FluidReport(
        rate_per_s=rate_per_s,
        throughput_tokens_per_s=throughput,
        goodput_tokens_per_s=goodput,
        attainment=attained / rate_per_s,
        mean_ttft_s=ttft_num / rate_per_s if rate_per_s else 0.0,
        ttft_percentiles={q: _mixture_quantile(components, q)
                          for q in TTFT_PERCENTILES},
        tpot_s=tpot_num / rate_per_s if rate_per_s else 0.0,
        capacity_req_per_s=capacity,
        max_rho=max_rho,
        regime=_regime(max_rho),
        fleet_price_usd=fleet_price,
        dollars_per_mtok=dollars_per_mtok(fleet_price, 1.0, throughput),
        stations=tuple(station_reports),
        classes=tuple(class_reports),
        iterations=iterations,
        converged=converged,
        label=label,
    )


@dataclasses.dataclass(frozen=True)
class FluidScenario:
    """One (fleet, rate) grid point for :func:`solve_grid`."""

    config: ClusterConfig
    rate_per_s: float
    label: Optional[str] = None


def solve_grid(scenarios: Sequence[FluidScenario],
               **common) -> List[FluidReport]:
    """Solve many what-if points, amortizing cost-table warmup.

    Demand expectations live on the shared
    :class:`~repro.engine.stepcost.DecodeCostTable` registry, so every
    grid point after the first with the same (platform, model, backend,
    shape mix) reuses warmed prefix curves and demand integrals;
    station groupings, with their per-flow demand vectors, are reused
    per distinct config within the call.
    Extra keyword arguments (the workload: ``mix``, ``spec``, ``slo``,
    ``router``) pass through to :func:`solve` for every scenario.
    """
    # Keyed by object identity: configs need not be hashable, and the
    # scenario list keeps them alive for the duration of the call.
    station_cache: Dict[int, List[_Station]] = {}
    reports = []
    for scenario in scenarios:
        config = scenario.config
        stations = station_cache.get(id(config))
        if stations is None:
            stations = _group_stations(config)
            station_cache[id(config)] = stations
        reports.append(solve(config, scenario.rate_per_s,
                             label=scenario.label, _stations=stations,
                             **common))
    return reports


def saturation_rate(config: ClusterConfig, *,
                    mix: Optional[Sequence[Tuple[str, float]]] = None,
                    spec: Optional[object] = None,
                    slo: Optional[SLO] = None,
                    router: str = "auto") -> float:
    """The fleet's saturation arrival rate (requests/s).

    For uniform routing this is closed-form (the capacity sum); for
    tiered routing the class→tier flows shift with load, so the edge is
    found by bisection on the solved ``max_rho``.
    """
    flows = _resolve_flows(mix, spec, slo)
    stations = _group_stations(config)
    uniform_cap = sum(station.capacity(flows) for station in stations)
    if router == "auto":
        router = "tiered" if mix is not None else "uniform"
    if router == "uniform":
        return uniform_cap

    def max_rho(rate: float) -> float:
        return solve(config, rate, mix=mix, spec=spec, slo=slo,
                     router=router, _stations=stations).max_rho

    lo, hi = uniform_cap * 1e-3, uniform_cap
    while max_rho(hi) < 1.0:
        lo, hi = hi, hi * 2.0
        if hi > uniform_cap * 64:
            # No saturating bracket found within 64x the uniform
            # capacity: signal "not found" rather than return an
            # arbitrary non-saturating rate.
            return math.inf
    while (hi - lo) > _SATURATION_REL_TOL * hi:
        mid = (lo + hi) / 2.0
        if max_rho(mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi
