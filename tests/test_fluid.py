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
  convergence and regimes exactly; every fleet, station and class float
  of the report (occupancy, waits, rates, TTFT/TPOT, attainment) to
  1e-9 relative. Bit identity against the parent is a same-host check
  (docs/fluid.md).
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
    def hx(value) -> str:  # an idle station's rate is the int 0
        return float.hex(float(value))

    return {
        "attainment": hx(report.attainment),
        "goodput_tokens_per_s": hx(report.goodput_tokens_per_s),
        "dollars_per_mtok": hx(report.dollars_per_mtok),
        "throughput_tokens_per_s": hx(report.throughput_tokens_per_s),
        "mean_ttft_s": hx(report.mean_ttft_s),
        "tpot_s": hx(report.tpot_s),
        "max_rho": hx(report.max_rho),
        "capacity_req_per_s": hx(report.capacity_req_per_s),
        "ttft_percentiles": {q: hx(v)
                             for q, v in report.ttft_percentiles.items()},
        "stations": [{
            "occupancy": tuple(hx(p) for p in s.occupancy),
            "tpot_s": hx(s.tpot_s),
            "rate_per_s": hx(s.rate_per_s),
            "capacity_req_per_s": hx(s.capacity_req_per_s),
            "rho": hx(s.rho),
            "utilization": hx(s.utilization),
            "mean_batch": hx(s.mean_batch),
            "p_wait": hx(s.p_wait),
            "mean_wait_s": hx(s.mean_wait_s),
            "throughput_tokens_per_s": hx(s.throughput_tokens_per_s),
            "class_rates": {name: hx(r) for name, r in s.class_rates.items()},
        } for s in report.stations],
        "classes": {c.name: {
            "attainment": hx(c.attainment),
            "mean_ttft_s": hx(c.mean_ttft_s),
            "tpot_s": hx(c.tpot_s),
            "spill_rate_per_s": hx(c.spill_rate_per_s),
            "tier_rates": {label: hx(r) for label, r in c.tier_rates.items()},
        } for c in report.classes},
        "iterations": report.iterations,
        "converged": report.converged,
        "regime": report.regime,
    }


#: Pin fields compared exactly; every other leaf is a ``float.hex``.
_EXACT_FIELDS = ("iterations", "converged", "regime")


def _pinned_floats(pin: dict) -> dict:
    """The pin's float fields keyed by their path, decoded from float.hex."""
    floats = {}

    def walk(node, path):
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, (list, tuple)):
            items = enumerate(node)
        else:
            floats[path] = float.fromhex(node)
            return
        for key, child in items:
            walk(child, path + (key,))

    walk({k: v for k, v in pin.items() if k not in _EXACT_FIELDS}, ())
    return floats


#: Relative tolerance on pinned floats. The pins were recorded on
#: CPython 3.11 while the cost table's expected decode time was a numpy
#: dot; its correctly rounded ``math.fsum`` replacement moves them by up
#: to 3.5e-14. CPython 3.12's ``sum()`` adds floats with compensation,
#: but the station solve and the TTFT mixture CDF accumulate in plain
#: loops, which add left to right on every version; the ``sum()`` calls
#: left (the chain's normalizer, the report's per-class totals) move
#: the pins by up to 3.7e-14 on 3.12. None of this moves an iteration
#: count, a convergence flag or a regime.
PIN_REL_TOL = 1e-9

#: Tiered ``solve()`` outputs on :func:`_whatif_fleet` with the stock
#: class mix: at 2/s the fixed point converges, at 3/s it stops at the
#: iteration cap without converging, at 20/s the fleet is overloaded.
PINNED_SOLVES = {2.0: {'attainment': '0x1.cb872cee8c508p-1',
       'capacity_req_per_s': '0x1.827b8b9ea71fep+3',
       'classes': {'reasoning': {'attainment': '0x1.f929347b62060p-1',
                                 'mean_ttft_s': '0x1.e1440fec6ac45p-1',
                                 'spill_rate_per_s': '0x1.0a3a7b43d7600p-8',
                                 'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.2c00000000000p-58',
                                                'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.0b3513aaabe17p-8',
                                                'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x0.0p+0',
                                                'LLaMA2-13B@SPR-Max-9468/int8': '0x1.2f065ee48883ap-2'},
                                 'tpot_s': '0x1.8460fd83cc7fap-5'},
                   'simple': {'attainment': '0x1.bb206559257b5p-1',
                              'mean_ttft_s': '0x1.91330cfa21a19p-1',
                              'spill_rate_per_s': '0x1.47f9286b68704p-3',
                              'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.aef0cc4800000p-31',
                                             'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.47ad1803839cep-3',
                                             'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x0.0p+0',
                                             'LLaMA2-13B@SPR-Max-9468/int8': '0x1.ae14b9f86355ap-1'},
                              'tpot_s': '0x1.55227e2e3ffb8p-5'},
                   'standard': {'attainment': '0x1.cf66d919e8336p-1',
                                'mean_ttft_s': '0x1.ac1997131acdfp-1',
                                'spill_rate_per_s': '0x1.3079f43d7dc30p-4',
                                'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.e6f07d4000000p-36',
                                               'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.30641290142bap-4',
                                               'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x0.0p+0',
                                               'LLaMA2-13B@SPR-Max-9468/int8': '0x1.4059e4142702ep-1'},
                                'tpot_s': '0x1.5f13a6a7459bbp-5'}},
       'converged': True,
       'dollars_per_mtok': '0x1.18749b3998959p+2',
       'goodput_tokens_per_s': '0x1.0ef940df88432p+7',
       'iterations': 8,
       'max_rho': '0x1.8ccaade9d0e2dp-1',
       'mean_ttft_s': '0x1.a69fe42737031p-1',
       'regime': 'stable',
       'stations': [{'capacity_req_per_s': '0x1.3f8663c8b5bfcp+1',
                     'class_rates': {'reasoning': '0x1.0b3513aaabe17p-8',
                                     'simple': '0x1.47ad1803839cep-3',
                                     'standard': '0x1.30641290142bap-4'},
                     'mean_batch': '0x1.3fb2b0c306cd3p-1',
                     'mean_wait_s': '0x1.28fe8f39de13dp-22',
                     'occupancy': ('0x1.141c20ccac35cp-1',
                                   '0x1.514378a452058p-2',
                                   '0x1.aaba60922d950p-4',
                                   '0x1.7467b47a06411p-6',
                                   '0x1.f7cd18f50fe6ap-9',
                                   '0x1.19723be60fe88p-11',
                                   '0x1.0e4341ebc8528p-14',
                                   '0x1.ca6bbb4194701p-18',
                                   '0x1.5e3984c0fcabdp-21'),
                     'p_wait': '0x1.833394feb7b16p-21',
                     'rate_per_s': '0x1.e838c9e8e311cp-3',
                     'rho': '0x1.87287bca09b7fp-4',
                     'throughput_tokens_per_s': '0x1.35ee2515e7e3ep+3',
                     'tpot_s': '0x1.07d894de1b630p-4',
                     'utilization': '0x1.d7c7b9c7658ccp-2'},
                    {'capacity_req_per_s': '0x1.d3b9898d804b8p+2',
                     'class_rates': {'reasoning': '0x1.2c00000000000p-58',
                                     'simple': '0x1.aef0cc4800000p-31',
                                     'standard': '0x1.e6f07d4000000p-36'},
                     'mean_batch': '0x1.57352ca6388f5p-31',
                     'mean_wait_s': '0x1.792e1252c589bp-262',
                     'occupancy': ('0x1.fffffffaa32b4p-1',
                                   '0x1.57352ca268b3ap-31',
                                   '0x1.e7edd47b3625bp-63',
                                   '0x1.e8cdda21c96c3p-95',
                                   '0x1.830fb9af2c6edp-127',
                                   '0x1.01bd89634c803p-159',
                                   '0x1.2bf73231758bdp-192',
                                   '0x1.391f7e442f509p-225',
                                   '0x1.2aaf414053fb9p-258'),
                     'p_wait': '0x1.2aaf4140e2705p-258',
                     'rate_per_s': '0x1.be28505780000p-31',
                     'rho': '0x1.e86421eef900cp-34',
                     'throughput_tokens_per_s': '0x1.93b3dac480000p-26',
                     'tpot_s': '0x1.b29926aa5cc8fp-6',
                     'utilization': '0x1.57352ca450a17p-31'},
                    {'capacity_req_per_s': '0x0.0p+0',
                     'class_rates': {},
                     'mean_batch': '0x0.0p+0',
                     'mean_wait_s': '0x0.0p+0',
                     'occupancy': ('0x1.0000000000000p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0'),
                     'p_wait': '0x0.0p+0',
                     'rate_per_s': '0x0.0p+0',
                     'rho': '0x0.0p+0',
                     'throughput_tokens_per_s': '0x0.0p+0',
                     'tpot_s': '0x0.0p+0',
                     'utilization': '0x0.0p+0'},
                    {'capacity_req_per_s': '0x1.22f4b796e628ap+1',
                     'class_rates': {'reasoning': '0x1.2f065ee48883ap-2',
                                     'simple': '0x1.ae14b9f86355ap-1',
                                     'standard': '0x1.4059e4142702ep-1'},
                     'mean_batch': '0x1.ce944509ef158p+1',
                     'mean_wait_s': '0x1.bbd598ba83bafp-1',
                     'occupancy': ('0x1.4201e42cbd9bcp-8',
                                   '0x1.6d602fa51102bp-6',
                                   '0x1.b442f03dfbfefp-5',
                                   '0x1.6c856243eb1ccp-4',
                                   '0x1.de7e1983f5af7p-4',
                                   '0x1.069829331594dp-3',
                                   '0x1.f523e074965e7p-4',
                                   '0x1.aade5c7d4880dp-4',
                                   '0x1.4ad0f642761a2p-4'),
                     'p_wait': '0x1.6f8c14a541c41p-2',
                     'rate_per_s': '0x1.c2f8e6bf674d2p+0',
                     'rho': '0x1.8ccaade9d0e2dp-1',
                     'throughput_tokens_per_s': '0x1.0ca11dadd7a7dp+7',
                     'tpot_s': '0x1.65fe156247d7ep-5',
                     'utilization': '0x1.6f1010ad5465fp-1'}],
       'throughput_tokens_per_s': '0x1.2000000000000p+7',
       'tpot_s': '0x1.5fb3790bd7076p-5',
       'ttft_percentiles': {0.5: '0x1.466c6306a2ee4p-4',
                            0.9: '0x1.6b6c3cb215a81p+1',
                            0.99: '0x1.0cced5aedc711p+3'}},
 3.0: {'attainment': '0x1.043d8f2781555p-1',
       'capacity_req_per_s': '0x1.3a0f2be842920p+3',
       'classes': {'reasoning': {'attainment': '0x1.2e9d5e3e41260p-1',
                                 'mean_ttft_s': '0x1.46cab81e4cba1p+3',
                                 'spill_rate_per_s': '0x1.a328470cdbd00p-9',
                                 'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.24a8aa26ea2f8p-12',
                                                'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.35d72af41c9bcp-4',
                                                'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x0.0p+0',
                                                'LLaMA2-13B@SPR-Max-9468/int8': '0x1.7f0dd7e53beb4p-2'},
                                 'tpot_s': '0x1.bc95be52c18ebp-5'},
                   'simple': {'attainment': '0x1.f7c9a5a1b2293p-2',
                              'mean_ttft_s': '0x1.08fdb51faaf91p+3',
                              'spill_rate_per_s': '0x1.5c5a3f9af0310p-3',
                              'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.8b1a5e4625309p-5',
                                             'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.c2f03cd24c1e8p-2',
                                             'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x0.0p+0',
                                             'LLaMA2-13B@SPR-Max-9468/int8': '0x1.02eb1dd93bceep+0'},
                              'tpot_s': '0x1.7dde0458c4e88p-5'},
                   'standard': {'attainment': '0x1.fc01f4a0d142dp-2',
                                'mean_ttft_s': '0x1.1a9c3cfd488b4p+3',
                                'spill_rate_per_s': '0x1.33ae5ef37b410p-4',
                                'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.1de684de54904p-6',
                                               'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.1c1ec9aea0c2dp-2',
                                               'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x0.0p+0',
                                               'LLaMA2-13B@SPR-Max-9468/int8': '0x1.829b009b5693ap-1'},
                                'tpot_s': '0x1.910e84531df06p-5'}},
       'converged': False,
       'dollars_per_mtok': '0x1.75f0cef7761ccp+1',
       'goodput_tokens_per_s': '0x1.d7b05cfb1853ep+6',
       'iterations': 200,
       'max_rho': '0x1.ec0562f7471fap-1',
       'mean_ttft_s': '0x1.186d8b86a0c93p+3',
       'regime': 'near-saturation',
       'stations': [{'capacity_req_per_s': '0x1.b6a416b92a162p+0',
                     'class_rates': {'reasoning': '0x1.35d72af41c9bcp-4',
                                     'simple': '0x1.c2f03cd24c1e8p-2',
                                     'standard': '0x1.1c1ec9aea0c2dp-2'},
                     'mean_batch': '0x1.9bcc68a597e15p+1',
                     'mean_wait_s': '0x1.41b6a0fbfb84bp-5',
                     'occupancy': ('0x1.5af418669d1bfp-5',
                                   '0x1.03dd34235dd57p-3',
                                   '0x1.926d0f02fa3aap-3',
                                   '0x1.ad0c11dc97dd7p-3',
                                   '0x1.61eeaecda0f6ap-3',
                                   '0x1.e17bc59f61dc0p-4',
                                   '0x1.190ae4bee19b7p-4',
                                   '0x1.21599fcfff4ccp-5',
                                   '0x1.0bfd536cc8196p-6'),
                     'p_wait': '0x1.f321c795322fep-6',
                     'rate_per_s': '0x1.9642689efa042p-1',
                     'rho': '0x1.da33f0bb32390p-2',
                     'throughput_tokens_per_s': '0x1.79dd9b047549dp+5',
                     'tpot_s': '0x1.211cbb603574dp-4',
                     'utilization': '0x1.e3179ad852dd9p-1'},
                    {'capacity_req_per_s': '0x1.77e635f46789ep+2',
                     'class_rates': {'reasoning': '0x1.24a8aa26ea2f8p-12',
                                     'simple': '0x1.8b1a5e4625309p-5',
                                     'standard': '0x1.1de684de54904p-6'},
                     'mean_batch': '0x1.072a50814ae3ap-4',
                     'mean_wait_s': '0x1.df08a6655a52dp-49',
                     'occupancy': ('0x1.e03220e5196c5p-1',
                                   '0x1.ebd09527c93d6p-5',
                                   '0x1.0a600c4b44399p-9',
                                   '0x1.95b26bc122cf5p-15',
                                   '0x1.e75e06d57bfb1p-21',
                                   '0x1.eb66b5a080c31p-27',
                                   '0x1.b03b2cd42c438p-33',
                                   '0x1.547486720f049p-39',
                                   '0x1.e963e5e018199p-46'),
                     'p_wait': '0x1.eef2d58930554p-46',
                     'rate_per_s': '0x1.0e2b7904cea69p-4',
                     'rho': '0x1.6ffd49abcdc9ap-7',
                     'throughput_tokens_per_s': '0x1.3315a8b12c95dp+1',
                     'tpot_s': '0x1.b558f29c2ee12p-6',
                     'utilization': '0x1.fcddf1ae693a5p-5'},
                    {'capacity_req_per_s': '0x0.0p+0',
                     'class_rates': {},
                     'mean_batch': '0x0.0p+0',
                     'mean_wait_s': '0x0.0p+0',
                     'occupancy': ('0x1.0000000000000p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0',
                                   '0x0.0p+0'),
                     'p_wait': '0x0.0p+0',
                     'rate_per_s': '0x0.0p+0',
                     'rho': '0x0.0p+0',
                     'throughput_tokens_per_s': '0x0.0p+0',
                     'tpot_s': '0x0.0p+0',
                     'utilization': '0x0.0p+0'},
                    {'capacity_req_per_s': '0x1.1d1e385ba6293p+1',
                     'class_rates': {'reasoning': '0x1.7f0dd7e53beb4p-2',
                                     'simple': '0x1.02eb1dd93bceep+0',
                                     'standard': '0x1.829b009b5693ap-1'},
                     'mean_batch': '0x1.f9b18bc733acep-1',
                     'mean_wait_s': '0x1.85c3380ab9e63p+3',
                     'occupancy': ('0x1.80e2e5f1042b7p-12',
                                   '0x1.0e94344cfab41p-9',
                                   '0x1.9061e98ff4ff7p-8',
                                   '0x1.9ea4eda9e835dp-7',
                                   '0x1.51575ddd04171p-6',
                                   '0x1.cb02db73f9d96p-6',
                                   '0x1.0f832123c1776p-5',
                                   '0x1.1ec1885c6dc9ep-5',
                                   '0x1.1390fd5a2fb38p-5'),
                     'p_wait': '0x1.b95edb82a2766p-1',
                     'rate_per_s': '0x1.11fe0a101b09cp+1',
                     'rho': '0x1.ec0562f7471fap-1',
                     'throughput_tokens_per_s': '0x1.4cbc429c1dfb2p+7',
                     'tpot_s': '0x1.7b3b15629562ap-5',
                     'utilization': '0x1.5ea85fd909916p-3'}],
       'throughput_tokens_per_s': '0x1.affffffffffffp+7',
       'tpot_s': '0x1.8dfdc03c49f75p-5',
       'ttft_percentiles': {0.5: '0x1.8003d97534723p+1',
                            0.9: '0x1.9b753018e9bacp+4',
                            0.99: '0x1.d1ff75a397581p+5'}},
 20.0: {'attainment': '0x0.0p+0',
        'capacity_req_per_s': '0x1.eb771e07ca55ep+2',
        'classes': {'reasoning': {'attainment': '0x0.0p+0',
                                  'mean_ttft_s': 'inf',
                                  'spill_rate_per_s': '0x1.0747cc92239dcp+1',
                                  'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.2c18d8f442b92p+0',
                                                 'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.1bb8ef191fc90p-1',
                                                 'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x1.52b1dac14053fp-2',
                                                 'LLaMA2-13B@SPR-Max-9468/int8': '0x1.e2bc719dba9afp-1'},
                                  'tpot_s': '0x1.e0efe823ae779p-5'},
                    'simple': {'attainment': '0x0.0p+0',
                               'mean_ttft_s': 'inf',
                               'spill_rate_per_s': '0x1.b6ccff9e3b5c4p+2',
                               'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.f429699719df2p+1',
                                              'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.d8dee3d48a4f0p+0',
                                              'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x1.1a3ee0f66045fp+0',
                                              'LLaMA2-13B@SPR-Max-9468/int8': '0x1.9247b40370d68p+1'},
                               'tpot_s': '0x1.e0efe823ae77ap-5'},
                    'standard': {'attainment': '0x0.0p+0',
                                 'mean_ttft_s': 'inf',
                                 'spill_rate_per_s': '0x1.33291955298d6p+2',
                                 'tier_rates': {'LLaMA2-13B@A100-40GB/bf16': '0x1.5e1cfd1cf8829p+1',
                                                'LLaMA2-13B@SPR-Max-9468/bf16': '0x1.4b026c47fa6a8p+0',
                                                'LLaMA2-13B@SPR-Max-9468/bf16-hyb.a100': '0x1.8b24d48c2061fp-1',
                                                'LLaMA2-13B@SPR-Max-9468/int8': '0x1.1998979c022fcp+1'},
                                 'tpot_s': '0x1.e0efe823ae77bp-5'}},
        'converged': True,
        'dollars_per_mtok': '0x1.242c748915317p+0',
        'goodput_tokens_per_s': '0x0.0p+0',
        'iterations': 14,
        'max_rho': '0x1.4df277cad69fcp+1',
        'mean_ttft_s': 'inf',
        'regime': 'overloaded',
        'stations': [{'capacity_req_per_s': '0x1.6b2e7d963eefdp+0',
                      'class_rates': {'reasoning': '0x1.1bb8ef191fc90p-1',
                                      'simple': '0x1.d8dee3d48a4f0p+0',
                                      'standard': '0x1.4b026c47fa6a8p+0'},
                      'mean_batch': '0x1.0000000000000p+3',
                      'mean_wait_s': 'inf',
                      'occupancy': ('0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x1.0000000000000p+0'),
                      'p_wait': '0x1.0000000000000p+0',
                      'rate_per_s': '0x1.d8dee3d48a4f0p+1',
                      'rho': '0x1.4d515ac290299p+1',
                      'throughput_tokens_per_s': '0x1.98944d4906cddp+6',
                      'tpot_s': '0x1.45515595a7679p-4',
                      'utilization': '0x1.0000000000000p+0'},
                     {'capacity_req_per_s': '0x1.802629e6f240dp+1',
                      'class_rates': {'reasoning': '0x1.2c18d8f442b92p+0',
                                      'simple': '0x1.f429699719df2p+1',
                                      'standard': '0x1.5e1cfd1cf8829p+1'},
                      'mean_batch': '0x1.0000000000000p+3',
                      'mean_wait_s': 'inf',
                      'occupancy': ('0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x1.0000000000000p+0'),
                      'p_wait': '0x1.0000000000000p+0',
                      'rate_per_s': '0x1.f429699719df2p+2',
                      'rho': '0x1.4d4fd0ca6c2cdp+1',
                      'throughput_tokens_per_s': '0x1.b02aef23d088fp+7',
                      'tpot_s': '0x1.338fb497f6094p-5',
                      'utilization': '0x1.0000000000000p+0'},
                     {'capacity_req_per_s': '0x1.b0bb8086b5367p-1',
                      'class_rates': {'reasoning': '0x1.52b1dac14053fp-2',
                                      'simple': '0x1.1a3ee0f66045fp+0',
                                      'standard': '0x1.8b24d48c2061fp-1'},
                      'mean_batch': '0x1.0000000000000p+3',
                      'mean_wait_s': 'inf',
                      'occupancy': ('0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x1.0000000000000p+0'),
                      'p_wait': '0x1.0000000000000p+0',
                      'rate_per_s': '0x1.1a3ee0f66045fp+1',
                      'rho': '0x1.4df277cad69fcp+1',
                      'throughput_tokens_per_s': '0x1.e6d2f0978bdd4p+5',
                      'tpot_s': '0x1.1107f5bb4df79p-3',
                      'utilization': '0x1.0000000000000p+0'},
                     {'capacity_req_per_s': '0x1.3501f33bd5a56p+1',
                      'class_rates': {'reasoning': '0x1.e2bc719dba9afp-1',
                                      'simple': '0x1.9247b40370d68p+1',
                                      'standard': '0x1.1998979c022fcp+1'},
                      'mean_batch': '0x1.0000000000000p+3',
                      'mean_wait_s': 'inf',
                      'occupancy': ('0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x0.0p+0',
                                    '0x1.0000000000000p+0'),
                      'p_wait': '0x1.0000000000000p+0',
                      'rate_per_s': '0x1.9247b40370d68p+2',
                      'rho': '0x1.4d45ba7b22e9dp+1',
                      'throughput_tokens_per_s': '0x1.5ba231a3505a1p+7',
                      'tpot_s': '0x1.7e59e2f1a0536p-5',
                      'utilization': '0x1.0000000000000p+0'}],
        'throughput_tokens_per_s': '0x1.147300e461d05p+9',
        'tpot_s': '0x1.e0efe823ae77ap-5',
        'ttft_percentiles': {0.5: 'inf', 0.9: 'inf', 0.99: 'inf'}}}

#: Tiered ``saturation_rate`` of :func:`_whatif_fleet` (bisection over
#: the fixed point, so it exercises ~20 solves per call).
PINNED_SATURATION = "0x1.cd8a64ec6e391p+1"


@pytest.mark.parametrize("rate", sorted(PINNED_SOLVES))
def test_tiered_solve_matches_pin(rate):
    got = _pin(fluid.solve(_whatif_fleet(), rate, mix=DEFAULT_CLASS_MIX))
    want = PINNED_SOLVES[rate]
    for key in _EXACT_FIELDS:
        assert got[key] == want[key], key
    got_floats, want_floats = _pinned_floats(got), _pinned_floats(want)
    assert got_floats.keys() == want_floats.keys()
    assert got_floats == pytest.approx(want_floats, rel=PIN_REL_TOL, abs=0.0)


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


# -- the fixed point's cycle skip ------------------------------------------


def _cycling_point():
    """One SPR and one A100 LLaMA2-13B replica at 2/s: from iteration 69
    the tiered fixed point repeats an exact cycle of period 8."""
    spr, a100 = get_platform("spr"), get_platform("a100")
    model = get_model("llama2-13b")
    config = ClusterConfig([ReplicaSpec(spr, model), ReplicaSpec(a100, model)])
    return (fluid._group_stations(config),
            fluid._resolve_flows(DEFAULT_CLASS_MIX, None, None), 2.0)


def _straight(stations, flows, rate, cap):
    """Every iterate up to the cap, stopping only on convergence.

    Returns the ``_tiered_flows`` result and the steps' deltas.
    """
    tolerance = fluid._FIXED_POINT_TOL * max(rate, 1e-12)
    deltas = []
    for iterations, (state, spill, delta) in enumerate(
            fluid._spill_iterates(stations, flows, rate), 1):
        deltas.append(delta)
        converged = delta <= tolerance
        if converged or iterations == cap:
            break
    result = ([list(zip(flows, row)) for row in state], iterations,
              converged, {f.name: r for f, r in zip(flows, spill)})
    return result, deltas


def _counted_tiered_flows(monkeypatch, stations, flows, rate):
    """``_tiered_flows`` plus how many iterations it actually ran."""
    iterates = fluid._spill_iterates
    ran = []

    def counting(*args):
        for item in iterates(*args):
            ran.append(item)
            yield item

    monkeypatch.setattr(fluid, "_spill_iterates", counting)
    result = fluid._tiered_flows(stations, flows, rate)
    monkeypatch.setattr(fluid, "_spill_iterates", iterates)
    return result, len(ran)


@pytest.mark.parametrize("cap", [150, 200, 257])
def test_cycle_skip_matches_straight_iteration(monkeypatch, cap):
    stations, flows, rate = _cycling_point()
    want, _ = _straight(stations, flows, rate, cap)
    assert want[1] == cap and not want[2]
    monkeypatch.setattr(fluid, "_FIXED_POINT_MAX_ITERS", cap)
    got, ran = _counted_tiered_flows(monkeypatch, stations, flows, rate)
    assert ran < 100  # the cycle was skipped, not iterated
    assert got == want


def test_cycle_skip_checks_the_tolerance_first(monkeypatch):
    """A step that converges onto an earlier state ends converged.

    Scripted iterates: the third step returns to the first state with a
    delta inside the tolerance. A straight run stops there converged, so
    the skip may only look for a repeat once the step has failed the
    tolerance.
    """
    _, flows, rate = _cycling_point()
    tolerance = fluid._FIXED_POINT_TOL * rate
    a = ((1.0,) * len(flows),)
    b = ((2.0,) * len(flows),)
    script = [(a, [0.1] * len(flows), 1.0), (b, [0.2] * len(flows), 1.0),
              (a, [0.3] * len(flows), tolerance)]
    monkeypatch.setattr(fluid, "_spill_iterates",
                        lambda *args: iter(list(script)))
    want, _ = _straight(None, flows, rate, 200)
    assert want[1] == 3 and want[2]
    assert fluid._tiered_flows(None, flows, rate) == want
