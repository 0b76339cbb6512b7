"""Fluid/mean-field steady-state solver for instant cluster what-ifs.

The last rung of the raw-speed ladder: per-step simulation, closed-form
fast-forward, sharded execution — and now no event loop at all. Given a
:class:`~repro.cluster.config.ClusterConfig`, an arrival rate, and a
request-shape (or class) mix, :func:`solve` computes the steady state of
the fleet analytically: per-replica batch-occupancy distribution,
throughput, queueing delay, TTFT/TPOT percentiles, SLO attainment,
goodput, and $/Mtok — versus seconds-to-minutes for the discrete-event
simulator. Once the cost tables are warm, a class-less solve takes
about 0.3 ms and a tiered one about 1.5 ms when its fixed point
converges, or about 20 ms when it runs to the 200-iteration cap
(measured on a 2-vCPU x86 host; see ``docs/fluid.md``).

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
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cost import price_rate
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import dollars_per_mtok
from repro.cluster.node import ReplicaNode
from repro.cluster.tiering import Tier, tier_label
from repro.serving.arrivals import _spec_ranges
from repro.serving.slo import SLO
from repro.workloads.classes import REQUEST_CLASSES

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
    total = sum(share for _, share in mix)
    if total <= 0:
        raise ValueError("class mix shares must sum to a positive value")
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
    if not flows:
        raise ValueError("class mix resolved to no positive shares")
    return flows


# -- stations --------------------------------------------------------------


class _Station:
    """One tier of interchangeable replicas, with memoized demands.

    The columns ``busy``, ``q``, ``lo``, ``hi`` and ``frac``, indexed by
    pooled state ``n`` in ``0..k*B``, hold busy replicas, per-replica
    occupancy, and its bracketing batch sizes with the interpolation
    weight — the grid every chain quantity reads. State 0 (nothing busy)
    holds zeros.
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
        grid = [(0, 0.0, 0, 0, 0.0)]
        for n in range(1, self.count * big_b + 1):
            busy = min(n, self.count)
            q = n / busy  # always within [1, B]
            lo = int(math.floor(q))
            grid.append((busy, q, lo, min(lo + 1, big_b), q - lo))
        self.busy, self.q, self.lo, self.hi, self.frac = zip(*grid)
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
        slope. :func:`_service_cv2` mixes them across classes.

        Filled on the flow's first solve here, never by a probe: the
        cost curves interpolate between the chunk ends they were
        extended to, so the order curves are first read in fixes their
        last bits (and every later exact simulation's).
        """
        key = (flow.input_range, flow.output_range)
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

    def ttft_cdf(self, t: float) -> float:
        if self.overloaded:
            return 0.0
        return _tail_cdf(self.p_wait, self.theta, self.t0_s, t)


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
        self.flows = [(flow, rate) for flow, rate in flows if rate > 0.0]
        self.rate_per_s = sum(rate for _, rate in self.flows)
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
        self._pi = [1.0] + [0.0] * (station.count * station.max_batch)
        self.p_wait = 0.0
        self.mean_wait_s = 0.0
        self.theta = math.inf
        self.throughput_tokens_per_s = 0.0
        self.tpot_s = 0.0

    def _solve(self) -> None:
        station = self.station
        k, big_b = station.count, station.max_batch
        rate = self.rate_per_s
        weights = [r / rate for _, r in self.flows]
        demands = [station.demand(flow) for flow, _ in self.flows]

        prefill = sum([w * p for w, (p, _, _) in zip(weights, demands)])
        # decode[b] = mixture D(b), b >= 1
        decode = list(map(sum, zip(*[[w * x for x in d] for w, (_, d, _)
                                     in zip(weights, demands)])))
        steps = sum([w * flow.mean_steps
                     for w, (flow, _) in zip(weights, self.flows)])
        mean_out = sum([w * flow.mean_output
                        for w, (flow, _) in zip(weights, self.flows)])
        # Mixture demand at each pooled state: S = prefill + mixed[n] / q
        # is the completion spacing, mixed[n] / steps the token gap.
        mixed = [decode[lo] + (decode[hi] - decode[lo]) * frac
                 for lo, hi, frac in zip(station.lo, station.hi,
                                         station.frac)]

        top = k * big_b
        s_full = prefill + mixed[top] / station.q[top]
        capacity = k / s_full
        self.capacity_req_per_s = capacity
        rho = rate / capacity
        self.rho = rho
        self.regime = _regime(rho)
        overloaded = rho >= 1.0
        served = min(rate, capacity)
        self.throughput_tokens_per_s = served * mean_out

        # Pooled birth-death chain over n in [0, k*B]; geometric tail.
        if overloaded:
            p_wait, mean_wait = 1.0, math.inf
            self.utilization = 1.0
        else:
            # Accumulate the chain in log-space: the un-normalized
            # running product overflows for large fleets (k*B in the
            # thousands) long before normalization.
            logs = list(itertools.accumulate(
                [math.log(rate / (busy / (prefill + m / q))) for busy, q, m
                 in zip(station.busy[1:], station.q[1:], mixed[1:])],
                initial=0.0))
            peak = max(logs)
            raw = [math.exp(v - peak) for v in logs]
            tail = raw[top] * rho / (1.0 - rho)  # mass beyond n = k*B
            norm = sum(raw) + tail
            pi = self._pi = [p / norm for p in raw]
            p_wait = (raw[top] / (1.0 - rho)) / norm
            queue_len = (raw[top] / norm) * rho / (1.0 - rho) ** 2
            mean_wait = queue_len / rate
            # M/G/k-style correction: scale the M/M wait by the
            # service-demand variability of the shape mixture.
            mean_wait *= (1.0 + _service_cv2(weights, demands)) / 2.0
            self.utilization = min(1.0, sum(
                [p * busy / k for p, busy in zip(pi, station.busy)]))
        self.p_wait = p_wait
        self.mean_wait_s = mean_wait
        theta = math.inf if mean_wait <= 0.0 \
            else (0.0 if not math.isfinite(mean_wait)
                  else p_wait / mean_wait)
        self.theta = theta

        # Token-weighted occupancy: states produce tokens at n / gap,
        # so heavier batches dominate what a *token* experiences.
        token_states: List[Tuple[float, int, float]] = []  # (w, n, gap)
        if steps > 0.0:
            if overloaded:
                token_states.append((1.0, top, mixed[top] / steps))
            else:
                gaps = [m / steps for m in mixed]
                token_states = [(p * n / g, n, g)
                                for n, (p, g) in enumerate(zip(pi, gaps))
                                if n > 0 and p > 0.0 and g > 0.0]
                tail_mass = 1.0 - sum(pi)
                g = mixed[top] / steps
                if tail_mass > 0.0 and g > 0.0:
                    token_states.append((tail_mass * top / g, top, g))
        self._token_states = token_states
        token_norm = self._token_norm = sum([w for w, _, _ in token_states])

        prefill_share = min(served / k * prefill, _MAX_PREFILL_SHARE)
        self._inflation = 1.0 / (1.0 - prefill_share)
        if token_norm > 0.0:
            mean_gap = sum([w * g for w, _, g in token_states]) / token_norm
        else:
            mean_gap = 0.0
        self.tpot_s = mean_gap * self._inflation

        # Admission-boundary wait: residual of the in-flight iteration
        # plus the residual of an in-flight exclusive prefill.
        self.boundary_s = self.utilization * mean_gap / 2.0 \
            + (served / k * prefill) * prefill / 2.0

    @functools.cached_property
    def occupancy(self) -> Tuple[float, ...]:
        """Per-replica batch-occupancy histogram (the tail sits at B)."""
        station = self.station
        k, big_b = station.count, station.max_batch
        if self.rho >= 1.0:
            return tuple([0.0] * big_b + [1.0])
        occupancy = [0.0] * (big_b + 1)
        for n, p in enumerate(self._pi):
            if p <= 0.0:
                continue
            if n == 0:
                occupancy[0] += p
                continue
            busy, frac = station.busy[n], station.frac[n]
            occupancy[0] += p * (k - busy) / k
            occupancy[station.lo[n]] += p * (busy / k) * (1.0 - frac)
            occupancy[station.hi[n]] += p * (busy / k) * frac
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
                for w, n, _ in self._token_states:
                    lo, hi = station.lo[n], station.hi[n]
                    gaps.append((w, (d[lo] + (d[hi] - d[lo])
                                     * station.frac[n]) / flow_steps))
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


def _service_cv2(weights: List[float], demands: List[tuple]) -> float:
    """Squared CV of the per-slot service demand across the mixture.

    Each flow brings its own moments (:meth:`_Station.demand`), so
    heterogeneous class mixes contribute the cross-class spread of the
    means to the second moment.
    """
    mean = 0.0
    second = 0.0
    for w, (_, _, (x, x2)) in zip(weights, demands):
        mean += w * x
        second += w * x2
    if mean <= 0.0:
        return 0.0
    return max(0.0, second / (mean * mean) - 1.0)


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


def _tiered_flows(stations: List[_Station], flows: List[_Flow],
                  rate: float
                  ) -> Tuple[List[List[Tuple[_Flow, float]]],
                             int, bool, Dict[str, float]]:
    """Damped fixed point over class→tier admission shares.

    Mirrors the :class:`~repro.cluster.tiering.TieredRouter`: each class
    homes on the cheapest eligible tier whose unloaded service clears
    its bar, and the share of arrivals that would see the TTFT bar
    broken (the stationary spill probability) cascades to pricier
    eligible tiers; saturated leftovers spread capacity-proportionally,
    matching the router's earliest-finish degrade.
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

    # Per class: its offered rate, its TTFT bar, and the tiers it tries
    # in order (its home tier, then the pricier spills).
    routes = [(rate * flow.share, flow.slo.ttft_s, eligible[f][home[f]:])
              for f, flow in enumerate(flows)]
    # current[i][f] = rate of class f routed to station i
    current = [[0.0] * len(flows) for _ in stations]
    for f, (offered, _, path) in enumerate(routes):
        current[path[0]][f] = offered
    # A station's solution is a pure function of (station, flow rates);
    # capped fixed points that enter a cycle revisit assignments.
    memo: Dict[tuple, _StationSolution] = {}

    converged = False
    iterations = 0
    spill_rate = [0.0] * len(flows)
    for iterations in range(1, _FIXED_POINT_MAX_ITERS + 1):
        solutions = []
        for i, row in enumerate(current):
            key = (i, tuple(row))
            sol = memo.get(key)
            if sol is None:
                sol = memo[key] = _StationSolution(stations[i],
                                                   list(zip(flows, row)))
            solutions.append(sol)
        proposal = [[0.0] * len(flows) for _ in stations]
        spill_rate = [0.0] * len(flows)
        for f, (remaining, ttft, path) in enumerate(routes):
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
                if i != path[0]:
                    spill_rate[f] += take
                remaining -= take
            if remaining > 1e-12:
                # Every eligible tier saturated for this class: spread
                # the rest capacity-proportionally (earliest-finish).
                # An idle tier's capacity is 0 and falls back to its
                # replica count, which is not in req/s (see ROADMAP).
                caps = [solutions[i].capacity_req_per_s
                        if solutions[i].capacity_req_per_s > 0.0
                        else stations[i].count for i in eligible[f]]
                total = sum(caps)
                for i, cap in zip(eligible[f], caps):
                    extra = remaining * cap / total
                    proposal[i][f] += extra
                    if i != path[0]:
                        spill_rate[f] += extra

        damped = [[(1.0 - _FIXED_POINT_DAMPING) * old
                   + _FIXED_POINT_DAMPING * prop
                   for old, prop in zip(row, new_row)]
                  for row, new_row in zip(current, proposal)]
        delta = max([abs(new - old) for new_row, row in zip(damped, current)
                     for new, old in zip(new_row, row)])
        current = damped
        if delta <= _FIXED_POINT_TOL * max(rate, 1e-12):
            converged = True
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

    def cdf(t: float) -> float:
        return sum(w * c.ttft_cdf(t) for w, c in components) / total

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
        mix: Optional class mix ``((name, share), ...)`` — engages the
            tiered flow fixed point with per-class SLOs from
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
