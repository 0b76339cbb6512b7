"""Calibration targets: the paper numbers the simulator must land near.

DESIGN.md §5 lists the quantitative anchors extracted from the paper's
text. This module encodes each as a :class:`CalibrationTarget` — a
measurement function plus an acceptance band around the paper's value —
and provides a checker that reports measured-vs-paper for all of them.
The bands are intentionally loose (the substrate is a model, not the
authors' testbed); what must hold is that every measurement falls inside
its band, i.e. the *shape* survives.
"""

import dataclasses
from typing import Callable, List, Tuple

from repro.core.comparison import compare_platforms, per_model_speedup_range
from repro.core.runner import CharacterizationSweep, run_inference
from repro.engine.backend import NumaBackend
from repro.engine.inference import simulate
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.memory import kv_cache_bytes, weight_bytes
from repro.models.registry import get_model
from repro.numa.modes import QUAD_CACHE, QUAD_FLAT, SNC_FLAT
from repro.offload.engine import OffloadSimulator
from repro.utils.units import GB


@dataclasses.dataclass(frozen=True)
class CalibrationTarget:
    """One paper anchor with its acceptance band.

    Attributes:
        target_id: Short identifier.
        description: What is measured.
        paper_value: The paper's reported number (band midpoint reference).
        band: (low, high) acceptance interval for the measurement.
        measure: Zero-argument function returning the simulated value.
    """

    target_id: str
    description: str
    paper_value: float
    band: Tuple[float, float]
    measure: Callable[[], float]

    def check(self) -> "CalibrationResult":
        """Measure and compare against the band."""
        value = self.measure()
        low, high = self.band
        return CalibrationResult(target=self, measured=value,
                                 in_band=low <= value <= high)


@dataclasses.dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one target check."""

    target: CalibrationTarget
    measured: float
    in_band: bool


def _cpu_comparison():
    models = [get_model(key) for key in
              ("opt-6.7b", "llama2-13b", "opt-66b")]
    sweep = CharacterizationSweep(
        [get_platform("icl"), get_platform("spr")], models, [1, 8, 32])
    return compare_platforms(sweep.run(), "ICL-8352Y", "SPR-Max-9468")


def _mean_gain(metric: str) -> float:
    # Throughput metrics normalize as target/baseline, which IS the gain.
    comps = _cpu_comparison()
    gains = [c.normalized[metric] for c in comps]
    return sum(gains) / len(gains)


def _spr_icl_e2e_speedup() -> float:
    speedups = per_model_speedup_range(_cpu_comparison())
    return sum(speedups.values()) / len(speedups)


def _numa_ratio(numerator, denominator) -> float:
    model = get_model("llama2-13b")
    request = InferenceRequest(batch_size=8)
    spr = get_platform("spr")
    top = simulate(spr, model, request, NumaBackend(numa=numerator)).e2e_s
    bottom = simulate(spr, model, request,
                      NumaBackend(numa=denominator)).e2e_s
    return top / bottom


def _core_reduction_12_to_48() -> float:
    model = get_model("llama2-13b")
    request = InferenceRequest(batch_size=8)
    spr = get_platform("spr")
    t12 = simulate(spr, model, request, NumaBackend(cores=12)).e2e_s
    t48 = simulate(spr, model, request, NumaBackend(cores=48)).e2e_s
    return (1.0 - t48 / t12) * 100.0


def _gpu_vs_cpu(model_key: str, gpu_key: str, cpu_wins: bool) -> float:
    request = InferenceRequest(batch_size=1)
    cpu = run_inference(get_platform("spr"), get_model(model_key), request)
    gpu = run_inference(get_platform(gpu_key), get_model(model_key), request)
    return gpu.e2e_s / cpu.e2e_s if cpu_wins else cpu.e2e_s / gpu.e2e_s


def _loading_share(gpu_key: str, model_key: str, batch: int) -> float:
    result = OffloadSimulator(get_platform(gpu_key)).run(
        get_model(model_key), InferenceRequest(batch_size=batch))
    return result.loading_share * 100.0


def _h100_crossover_input_len() -> float:
    model = get_model("llama2-70b")
    for input_len in (128, 256, 512, 1024):
        request = InferenceRequest(batch_size=16, input_len=input_len)
        cpu = run_inference(get_platform("spr"), model, request)
        gpu = run_inference(get_platform("h100"), model, request)
        if gpu.e2e_s < cpu.e2e_s:
            return float(input_len)
    return float("inf")


def all_targets() -> List[CalibrationTarget]:
    """The full calibration-target registry (DESIGN.md §5)."""
    return [
        CalibrationTarget(
            "spr_icl_e2e", "mean SPR-over-ICL E2E speedup",
            4.7, (3.0, 6.3), _spr_icl_e2e_speedup),
        CalibrationTarget(
            "spr_icl_prefill", "mean SPR-over-ICL prefill throughput gain",
            7.7, (5.5, 9.5), lambda: _mean_gain("prefill_throughput")),
        CalibrationTarget(
            "spr_icl_decode", "mean SPR-over-ICL decode throughput gain",
            4.1, (2.5, 5.6), lambda: _mean_gain("decode_throughput")),
        CalibrationTarget(
            "flat_vs_cache", "quad_flat / quad_cache E2E ratio",
            0.95, (0.85, 1.0), lambda: _numa_ratio(QUAD_FLAT, QUAD_CACHE)),
        CalibrationTarget(
            "snc_vs_quad", "snc_flat / quad_flat E2E ratio",
            1.2, (1.05, 1.6), lambda: _numa_ratio(SNC_FLAT, QUAD_FLAT)),
        CalibrationTarget(
            "cores_12_48", "E2E latency reduction 12 -> 48 cores (%)",
            59.8, (48.0, 68.0), _core_reduction_12_to_48),
        CalibrationTarget(
            "a100_opt13b", "A100-over-SPR speedup, OPT-13B batch 1",
            2.9, (2.0, 3.6), lambda: _gpu_vs_cpu("opt-13b", "a100", False)),
        CalibrationTarget(
            "h100_opt13b", "H100-over-SPR speedup, OPT-13B batch 1",
            3.7, (2.5, 4.6), lambda: _gpu_vs_cpu("opt-13b", "h100", False)),
        CalibrationTarget(
            "cpu_opt30b", "SPR-over-A100 speedup, OPT-30B batch 1 (offload)",
            12.7, (8.0, 20.0), lambda: _gpu_vs_cpu("opt-30b", "a100", True)),
        CalibrationTarget(
            "cpu_opt66b", "SPR-over-H100 speedup, OPT-66B batch 1 (offload)",
            5.0, (3.0, 7.0), lambda: _gpu_vs_cpu("opt-66b", "h100", True)),
        CalibrationTarget(
            "load_a100_b1", "A100/OPT-30B loading share at batch 1 (%)",
            95.0, (90.0, 99.0), lambda: _loading_share("a100", "opt-30b", 1)),
        CalibrationTarget(
            "load_a100_b32", "A100/OPT-30B loading share at batch 32 (%)",
            67.0, (60.0, 85.0), lambda: _loading_share("a100", "opt-30b", 32)),
        CalibrationTarget(
            "load_h100_b32", "H100/OPT-66B loading share at batch 32 (%)",
            59.0, (55.0, 85.0), lambda: _loading_share("h100", "opt-66b", 32)),
        CalibrationTarget(
            "crossover_70b", "H100 crossover input length, 70B batch 16",
            256.0, (256.0, 512.0), _h100_crossover_input_len),
        CalibrationTarget(
            "opt175b_gb", "OPT-175B FP16 weight footprint (GB)",
            350.0, (340.0, 360.0),
            lambda: weight_bytes(get_model("opt-175b")) / GB),
        CalibrationTarget(
            "opt66b_kv_gb", "OPT-66B KV @ seq 4096 batch 32 (GB)",
            309.2, (300.0, 320.0),
            lambda: kv_cache_bytes(get_model("opt-66b"), 4096, 32) / GB),
    ]


def check_all_targets() -> List[CalibrationResult]:
    """Check every calibration target."""
    return [target.check() for target in all_targets()]
