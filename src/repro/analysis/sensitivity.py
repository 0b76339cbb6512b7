"""Sensitivity analysis: do the paper's conclusions survive calibration error?

Every simulation-based reproduction owes its reader an answer to "how
much do the results depend on the knobs you picked?" This module sweeps
the most influential calibration constants and re-checks the paper's
headline conclusions at each setting:

* PCIe achieved efficiency — drives Key Finding #4's "CPU beats
  offloading GPU" margins;
* CPU stream efficiency — drives Key Finding #1's decode gains;
* zig-zag amortization slope — drives Fig. 18 and the Fig. 21 crossover.

A conclusion is *robust* if it holds across the swept range, not just at
the calibrated point.
"""

import dataclasses
from typing import Callable, List, Sequence

from repro.engine.inference import simulate
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.offload.engine import OffloadSimulator
from repro.offload.policy import OffloadCalibration


@dataclasses.dataclass(frozen=True)
class SensitivityPoint:
    """One swept setting and the conclusion's margin there.

    Attributes:
        value: The knob setting.
        margin: Quantitative margin (e.g. speedup; >1 means the claim
            holds at this setting).
        holds: Whether the qualitative claim survives.
    """

    value: float
    margin: float
    holds: bool


@dataclasses.dataclass(frozen=True)
class SensitivityResult:
    """Sweep outcome for one (knob, conclusion) pair."""

    knob: str
    conclusion: str
    points: List[SensitivityPoint]

    @property
    def robust(self) -> bool:
        """Whether the conclusion holds across the entire swept range."""
        return all(point.holds for point in self.points)


def _sweep(knob: str, conclusion: str, values: Sequence[float],
           margin_fn: Callable[[float], float]) -> SensitivityResult:
    points = [SensitivityPoint(value=v, margin=margin_fn(v),
                               holds=margin_fn(v) > 1.0)
              for v in values]
    return SensitivityResult(knob=knob, conclusion=conclusion, points=points)


def pcie_efficiency_sensitivity() -> SensitivityResult:
    """KF#4 margin (CPU over offloading A100, OPT-30B b=1) vs PCIe efficiency.

    Higher efficiency helps the GPU; the claim should survive even
    optimistic PCIe numbers because the volume (tens of GB per step) is
    the fundamental problem.
    """
    request = InferenceRequest(batch_size=1)
    cpu = simulate(get_platform("spr"), get_model("opt-30b"), request)

    def margin(eff: float) -> float:
        calibration = OffloadCalibration(pcie_efficiency=eff)
        gpu = OffloadSimulator(get_platform("a100"), calibration).run(
            get_model("opt-30b"), request)
        return gpu.e2e_s / cpu.e2e_s

    return _sweep("pcie_efficiency",
                  "CPU beats offloading A100 on OPT-30B (KF#4)",
                  (0.2, 0.35, 0.5, 0.7), margin)


def stream_efficiency_sensitivity() -> SensitivityResult:
    """KF#1 decode margin (SPR over ICL, LLaMA2-13B b=1) vs SPR stream eff.

    Even a pessimistic SPR kernel efficiency keeps the HBM-vs-DDR4
    bandwidth advantage decisive.
    """
    request = InferenceRequest(batch_size=1)
    icl = simulate(get_platform("icl"), get_model("llama2-13b"), request)

    def margin(eff: float) -> float:
        spr = dataclasses.replace(get_platform("spr"), stream_efficiency=eff)
        result = simulate(spr, get_model("llama2-13b"), request)
        return icl.tpot_s / result.tpot_s

    return _sweep("spr_stream_efficiency",
                  "SPR beats ICL on decode TPOT (KF#1)",
                  (0.5, 0.6, 0.72, 0.85), margin)


def zigzag_slope_sensitivity() -> SensitivityResult:
    """Fig. 18 direction (loading share declines b=1 -> b=32) vs slope."""
    model = get_model("opt-30b")

    def margin(slope: float) -> float:
        calibration = OffloadCalibration(zigzag_amortization_slope=slope)
        simulator = OffloadSimulator(get_platform("a100"), calibration)
        share_1 = simulator.run(model, InferenceRequest(batch_size=1)
                                ).loading_share
        share_32 = simulator.run(model, InferenceRequest(batch_size=32)
                                 ).loading_share
        return share_1 / share_32

    return _sweep("zigzag_amortization_slope",
                  "loading share declines with batch (Fig. 18)",
                  (0.05, 0.12, 0.21, 0.4), margin)


def all_sensitivities() -> List[SensitivityResult]:
    """Run every sensitivity sweep."""
    return [
        pcie_efficiency_sensitivity(),
        stream_efficiency_sensitivity(),
        zigzag_slope_sensitivity(),
    ]
