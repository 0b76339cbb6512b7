"""The fluid steady-state solver against its exact-simulator oracle.

Pins the tentpole contracts of :mod:`repro.cluster.fluid`:

* **Stable regime is quantitative.** Across randomized fleets, rates,
  and shape mixes, throughput/goodput/$-per-Mtok agree with the
  event-driven simulator within a documented tolerance. The tolerance
  here (6%) is looser than the full-scale benchmark record (~0.2% at
  20k requests) because short runs carry drain-tail and sampling
  noise — the bound catches a broken model, not noise.
* **The saturation edge lands within one replica-step.** The smallest
  fleet the solver calls serveable really serves, and one step below
  the edge the simulator visibly drowns.
* **Overload is flagged, never extrapolated.** Past saturation the
  report pins throughput to capacity, waits go infinite, attainment
  goes to zero — and says so.
* **Grid and scalar solves agree**, and the tiered class→tier fixed
  point conserves flow.
* **Solver speedups keep the numbers.** Tiered solves on a mixed
  CPU/GPU fleet — converged, capped-without-converging, and overloaded
  — and a tiered saturation rate are pinned: iteration counts,
  convergence and regimes exactly, floats to 1e-9 relative. Bit
  identity against the parent is a same-host check (docs/fluid.md).
"""

import gc
import math
import random
import weakref

import pytest

from repro.analysis.cost import list_price
from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    JoinShortestQueueRouter,
    ReplicaSpec,
)
from repro.cluster import fluid
from repro.engine.backend import HybridBackend, parse_backend
from repro.experiments._sweeps import clear_caches
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import iter_poisson_arrivals
from repro.serving.slo import SLO
from repro.workloads.classes import DEFAULT_CLASS_MIX

# Documented stable-regime tolerance at short (2k-request) runs; the
# benchmark suite records ~0.2% at full scale (20k requests/point).
STABLE_REL_TOL = 0.06
SIM_REQUESTS = 2_000


def _fleet(platform_key: str, count: int, max_batch: int) -> ClusterConfig:
    return ClusterConfig([ReplicaSpec(
        get_platform(platform_key), get_model("llama2-7b"),
        count=count, max_batch=max_batch)])


def _simulate(config: ClusterConfig, rate: float, spec=None,
              count: int = SIM_REQUESTS, seed: int = 0):
    arrivals = list(iter_poisson_arrivals(rate, count=count, spec=spec,
                                          seed=seed))
    report = ClusterSimulator(config.build_fleet(),
                              JoinShortestQueueRouter()).run(iter(arrivals))
    return report, arrivals


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stable_regime_matches_simulator(seed):
    """Randomized stable-regime points: fluid vs exact within tolerance."""
    rng = random.Random(seed)
    count = rng.choice([2, 3, 4])
    max_batch = rng.choice([4, 8])
    config = _fleet("spr", count, max_batch)
    capacity = fluid.saturation_rate(config)
    rate = rng.uniform(0.3, 0.6) * capacity

    report = fluid.solve(config, rate)
    assert report.regime == fluid.REGIME_STABLE
    sim, arrivals = _simulate(config, rate, seed=seed)

    slo = SLO()
    sim_throughput = sim.throughput
    sim_goodput = sim.goodput(arrivals, slo)
    sim_dollars = sim.dollars_per_million_tokens()
    assert report.throughput_tokens_per_s == pytest.approx(
        sim_throughput, rel=STABLE_REL_TOL)
    assert report.goodput_tokens_per_s == pytest.approx(
        sim_goodput, rel=STABLE_REL_TOL)
    assert report.dollars_per_mtok == pytest.approx(
        sim_dollars, rel=STABLE_REL_TOL)
    assert abs(report.attainment - sim.attainment(arrivals, slo)) <= 0.05


def test_saturation_edge_within_one_replica_step():
    """The smallest serveable fleet serves; one step below, it drowns."""
    rate = 2.5 * fluid.saturation_rate(_fleet("spr", 1, 8))
    k_star = next(k for k in range(1, 12)
                  if not fluid.solve(_fleet("spr", k, 8), rate).overloaded)
    assert k_star > 1  # the sweep actually crosses the edge

    # At k* the simulator keeps up: it serves the offered window at the
    # offered rate (the drain tail adds slack, hence the 1.25 factor).
    sim, _ = _simulate(_fleet("spr", k_star, 8), rate, count=1_200)
    offered_window = 1_200 / rate
    assert sim.makespan_s <= 1.25 * offered_window

    # One replica-step below the edge the backlog is visible: the run
    # takes far longer than the arrival window.
    sim_under, _ = _simulate(_fleet("spr", k_star - 1, 8), rate,
                             count=1_200)
    assert sim_under.makespan_s >= 1.10 * offered_window


def test_overload_is_flagged_not_extrapolated():
    config = _fleet("spr", 2, 8)
    capacity = fluid.saturation_rate(config)
    report = fluid.solve(config, 1.5 * capacity)
    assert report.overloaded
    assert report.regime == fluid.REGIME_OVERLOADED
    assert report.attainment == 0.0
    assert math.isinf(report.mean_ttft_s)
    # Throughput pins to capacity: doubling the offered load changes
    # nothing about what actually gets served.
    doubled = fluid.solve(config, 3.0 * capacity)
    assert doubled.throughput_tokens_per_s == pytest.approx(
        report.throughput_tokens_per_s, rel=1e-6)


def test_solve_grid_matches_scalar_solves():
    config = _fleet("spr", 3, 8)
    rates = [1.0, 4.0, 9.0]
    grid = fluid.solve_grid([fluid.FluidScenario(config=config,
                                                 rate_per_s=rate)
                             for rate in rates])
    for rate, from_grid in zip(rates, grid):
        scalar = fluid.solve(config, rate)
        assert from_grid.throughput_tokens_per_s == pytest.approx(
            scalar.throughput_tokens_per_s, rel=1e-12)
        assert from_grid.mean_ttft_s == pytest.approx(
            scalar.mean_ttft_s, rel=1e-12)


def test_saturation_rate_brackets_the_regime_flip():
    config = _fleet("spr", 3, 8)
    capacity = fluid.saturation_rate(config)
    assert not fluid.solve(config, 0.99 * capacity).overloaded
    assert fluid.solve(config, 1.01 * capacity).overloaded


def test_tiered_mix_conserves_flow():
    """Class→tier fixed point: converged, flow-conserving, bounded."""
    config = ClusterConfig([
        ReplicaSpec(get_platform("icl"), get_model("llama2-7b"),
                    count=2, max_batch=8),
        ReplicaSpec(get_platform("spr"), get_model("llama2-13b"),
                    count=2, max_batch=8),
    ])
    rate = 1.2
    report = fluid.solve(config, rate, mix=DEFAULT_CLASS_MIX)
    assert report.converged
    # Admitted station flow equals the offered rate (nothing vanishes).
    total = sum(s.rate_per_s for s in report.stations)
    assert total == pytest.approx(rate, rel=1e-3)
    # Per-class rates mirror the mix shares.
    for klass in report.classes:
        assert klass.rate_per_s == pytest.approx(rate * klass.share,
                                                 rel=1e-6)
        assert 0.0 <= klass.attainment <= 1.0
    # Both tiers exist in the report even if one carries no flow.
    assert len(report.stations) == 2


def test_large_fleet_stays_finite():
    """32 replicas x batch 64 near saturation: no overflow, no NaN.

    Regression: the birth-death chain used to accumulate un-normalized
    running products, which overflow to inf at k*B in the thousands and
    turn every statistic NaN after normalization.
    """
    config = _fleet("spr", 32, 64)
    capacity = fluid.saturation_rate(config)
    assert math.isfinite(capacity)
    report = fluid.solve(config, 0.9 * capacity)

    assert not report.overloaded
    assert math.isfinite(report.throughput_tokens_per_s)
    assert math.isfinite(report.goodput_tokens_per_s)
    assert math.isfinite(report.mean_ttft_s)
    assert math.isfinite(report.tpot_s)
    assert math.isfinite(report.dollars_per_mtok)
    assert 0.0 <= report.attainment <= 1.0
    for station in report.stations:
        assert math.isfinite(station.p_wait)
        assert 0.0 <= station.p_wait <= 1.0
        assert math.isfinite(station.mean_wait_s)
        assert math.isfinite(station.utilization)
        assert 0.0 <= station.utilization <= 1.0
        assert sum(station.occupancy) == pytest.approx(1.0, abs=1e-6)


def test_rejects_empty_and_nonsense_inputs():
    config = _fleet("spr", 1, 8)
    with pytest.raises(ValueError):
        fluid.solve(config, 0.0)
    with pytest.raises(ValueError):
        fluid.solve(config, -1.0)
    with pytest.raises(ValueError):
        fluid.solve(ClusterConfig(replicas=()), 1.0)
    with pytest.raises(ValueError):
        fluid.solve(config, 1.0, router="no-such-router")


# -- bit-identity pin --------------------------------------------------------


def _whatif_fleet() -> ClusterConfig:
    """One LLaMA2-13B replica each of SPR, A100, SPR+A100 hybrid, SPR int8."""
    spr, a100 = get_platform("spr"), get_platform("a100")
    model = get_model("llama2-13b")
    return ClusterConfig([
        ReplicaSpec(spr, model),
        ReplicaSpec(a100, model),
        ReplicaSpec(spr, model, backend=HybridBackend(gpu=a100),
                    price_usd=list_price(spr.name) + list_price(a100.name)),
        ReplicaSpec(spr, model, backend=parse_backend("int8")),
    ])


def _pin(report: fluid.FluidReport) -> dict:
    hx = float.hex
    return {
        "attainment": hx(report.attainment),
        "goodput_tokens_per_s": hx(report.goodput_tokens_per_s),
        "dollars_per_mtok": hx(report.dollars_per_mtok),
        "ttft_percentiles": {q: hx(v)
                             for q, v in report.ttft_percentiles.items()},
        "stations": [(tuple(hx(p) for p in s.occupancy), hx(s.tpot_s))
                     for s in report.stations],
        "iterations": report.iterations,
        "converged": report.converged,
        "regime": report.regime,
    }


def _pinned_floats(pin: dict) -> list:
    """The pin's float fields in a fixed order, decoded from float.hex."""
    fields = [pin["attainment"], pin["goodput_tokens_per_s"],
              pin["dollars_per_mtok"],
              *(v for _, v in sorted(pin["ttft_percentiles"].items()))]
    for occupancy, tpot in pin["stations"]:
        fields.extend(occupancy)
        fields.append(tpot)
    return [float.fromhex(v) for v in fields]


#: Relative tolerance on pinned floats. The pins were recorded on
#: CPython 3.11 and are its exact bits. CPython 3.12's compensated
#: ``sum()`` moves them by up to 3e-14, and another summation order in
#: the cost table's numpy dot (a different BLAS kernel) by up to 3e-13.
#: Neither moves an iteration count, a convergence flag or a regime.
PIN_REL_TOL = 1e-9

#: Tiered ``solve()`` outputs on :func:`_whatif_fleet` with the stock
#: class mix: at 2/s the fixed point converges, at 3/s it stops at the
#: iteration cap without converging, at 20/s the fleet is overloaded.
PINNED_SOLVES = {2.0: {'attainment': '0x1.cb872cee8c508p-1',
           'converged': True,
           'dollars_per_mtok': '0x1.18749b3998959p+2',
           'goodput_tokens_per_s': '0x1.0ef940df88432p+7',
           'iterations': 8,
           'regime': 'stable',
           'stations': [(('0x1.141c20ccac35cp-1',
                          '0x1.514378a452058p-2',
                          '0x1.aaba60922d950p-4',
                          '0x1.7467b47a06411p-6',
                          '0x1.f7cd18f50fe6ap-9',
                          '0x1.19723be60fe88p-11',
                          '0x1.0e4341ebc8528p-14',
                          '0x1.ca6bbb4194701p-18',
                          '0x1.5e3984c0fcabdp-21'),
                         '0x1.07d894de1b630p-4'),
                        (('0x1.fffffffaa32b4p-1',
                          '0x1.57352ca268b3ap-31',
                          '0x1.e7edd47b3625bp-63',
                          '0x1.e8cdda21c96c3p-95',
                          '0x1.830fb9af2c6edp-127',
                          '0x1.01bd89634c803p-159',
                          '0x1.2bf73231758bdp-192',
                          '0x1.391f7e442f509p-225',
                          '0x1.2aaf414053fb9p-258'),
                         '0x1.b29926aa5cc8fp-6'),
                        (('0x1.0000000000000p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0'),
                         '0x0.0p+0'),
                        (('0x1.4201e42cbd9bcp-8',
                          '0x1.6d602fa51102bp-6',
                          '0x1.b442f03dfbfefp-5',
                          '0x1.6c856243eb1ccp-4',
                          '0x1.de7e1983f5af7p-4',
                          '0x1.069829331594dp-3',
                          '0x1.f523e074965e7p-4',
                          '0x1.aade5c7d4880dp-4',
                          '0x1.4ad0f642761a2p-4'),
                         '0x1.65fe156247d7ep-5')],
           'ttft_percentiles': {0.5: '0x1.466c6306a2ee4p-4',
                                0.9: '0x1.6b6c3cb215a81p+1',
                                0.99: '0x1.0cced5aedc711p+3'}},
     3.0: {'attainment': '0x1.043d8f2781555p-1',
           'converged': False,
           'dollars_per_mtok': '0x1.75f0cef7761ccp+1',
           'goodput_tokens_per_s': '0x1.d7b05cfb1853ep+6',
           'iterations': 200,
           'regime': 'near-saturation',
           'stations': [(('0x1.5af418669d1bfp-5',
                          '0x1.03dd34235dd57p-3',
                          '0x1.926d0f02fa3aap-3',
                          '0x1.ad0c11dc97dd7p-3',
                          '0x1.61eeaecda0f6ap-3',
                          '0x1.e17bc59f61dc0p-4',
                          '0x1.190ae4bee19b7p-4',
                          '0x1.21599fcfff4ccp-5',
                          '0x1.0bfd536cc8196p-6'),
                         '0x1.211cbb603574dp-4'),
                        (('0x1.e03220e5196c5p-1',
                          '0x1.ebd09527c93d6p-5',
                          '0x1.0a600c4b44399p-9',
                          '0x1.95b26bc122cf5p-15',
                          '0x1.e75e06d57bfb1p-21',
                          '0x1.eb66b5a080c31p-27',
                          '0x1.b03b2cd42c438p-33',
                          '0x1.547486720f049p-39',
                          '0x1.e963e5e018199p-46'),
                         '0x1.b558f29c2ee12p-6'),
                        (('0x1.0000000000000p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0',
                          '0x0.0p+0'),
                         '0x0.0p+0'),
                        (('0x1.80e2e5f1042b7p-12',
                          '0x1.0e94344cfab41p-9',
                          '0x1.9061e98ff4ff7p-8',
                          '0x1.9ea4eda9e835dp-7',
                          '0x1.51575ddd04171p-6',
                          '0x1.cb02db73f9d96p-6',
                          '0x1.0f832123c1776p-5',
                          '0x1.1ec1885c6dc9ep-5',
                          '0x1.1390fd5a2fb38p-5'),
                         '0x1.7b3b15629562ap-5')],
           'ttft_percentiles': {0.5: '0x1.8003d97534723p+1',
                                0.9: '0x1.9b753018e9bacp+4',
                                0.99: '0x1.d1ff75a397581p+5'}},
     20.0: {'attainment': '0x0.0p+0',
            'converged': True,
            'dollars_per_mtok': '0x1.242c748915317p+0',
            'goodput_tokens_per_s': '0x0.0p+0',
            'iterations': 14,
            'regime': 'overloaded',
            'stations': [(('0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x1.0000000000000p+0'),
                          '0x1.45515595a7679p-4'),
                         (('0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x1.0000000000000p+0'),
                          '0x1.338fb497f6094p-5'),
                         (('0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x1.0000000000000p+0'),
                          '0x1.1107f5bb4df79p-3'),
                         (('0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x0.0p+0',
                           '0x1.0000000000000p+0'),
                          '0x1.7e59e2f1a0536p-5')],
            'ttft_percentiles': {0.5: 'inf', 0.9: 'inf', 0.99: 'inf'}}}

#: Tiered ``saturation_rate`` of :func:`_whatif_fleet` (bisection over
#: the fixed point, so it exercises ~20 solves per call).
PINNED_SATURATION = "0x1.cd8a64ec6e391p+1"


@pytest.mark.parametrize("rate", sorted(PINNED_SOLVES))
def test_tiered_solve_matches_pin(rate):
    got = _pin(fluid.solve(_whatif_fleet(), rate, mix=DEFAULT_CLASS_MIX))
    want = PINNED_SOLVES[rate]
    for key in ("iterations", "converged", "regime"):
        assert got[key] == want[key], key
    assert got["ttft_percentiles"].keys() == want["ttft_percentiles"].keys()
    assert _pinned_floats(got) == pytest.approx(_pinned_floats(want),
                                                rel=PIN_REL_TOL, abs=0.0)


def test_tiered_saturation_rate_matches_pin():
    rate = fluid.saturation_rate(_whatif_fleet(), mix=DEFAULT_CLASS_MIX)
    assert rate == pytest.approx(float.fromhex(PINNED_SATURATION),
                                 rel=PIN_REL_TOL, abs=0.0)


def test_station_memos_die_with_their_call(monkeypatch):
    """Demand vectors and solution memos live only as long as one call.

    They hang off the call's own stations, so once ``solve_grid``
    returns, nothing in module state keeps a station alive, and a grid
    solved again after ``clear_caches()`` reproduces the first exactly.
    """
    group_stations = fluid._group_stations
    built = []

    def recording(config):
        stations = group_stations(config)
        built.extend(weakref.ref(station) for station in stations)
        return stations

    monkeypatch.setattr(fluid, "_group_stations", recording)
    scenarios = [fluid.FluidScenario(config=_whatif_fleet(), rate_per_s=rate)
                 for rate in (2.0, 20.0)]
    first = fluid.solve_grid(scenarios, mix=DEFAULT_CLASS_MIX)
    clear_caches()
    gc.collect()
    assert built and all(ref() is None for ref in built)
    assert fluid.solve_grid(scenarios, mix=DEFAULT_CLASS_MIX) == first
