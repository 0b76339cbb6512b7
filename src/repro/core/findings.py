"""Validators for the paper's five Key Findings.

Each validator runs the relevant slice of the evaluation on the simulator
and checks the *qualitative claim* (who wins, direction of trends) plus a
loose quantitative band around the paper's numbers. They power both the
test suite and the ``benchmarks/test_key_findings.py`` harness.
"""

import dataclasses
from typing import Callable, Dict, List

from repro.core.comparison import compare_platforms, per_model_speedup_range
from repro.core.runner import CharacterizationSweep, run_inference
from repro.engine.backend import NumaBackend
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.modes import EVALUATED_CONFIGS, QUAD_FLAT
from repro.scaling.cores import EVALUATED_CORE_COUNTS


@dataclasses.dataclass(frozen=True)
class FindingResult:
    """Outcome of checking one Key Finding.

    Attributes:
        finding_id: 1-5.
        statement: The paper's claim, abbreviated.
        holds: Whether the simulated system reproduces it.
        detail: Measured evidence string.
    """

    finding_id: int
    statement: str
    holds: bool
    detail: str


def _small_grid():
    """A reduced but representative model/batch grid (keeps checks fast)."""
    models = [get_model(n) for n in
              ("opt-6.7b", "llama2-13b", "opt-66b")]
    return models, [1, 8, 32]


def check_finding_1() -> FindingResult:
    """KF#1: SPR (AMX + HBM) beats ICL on latency and throughput for BF16."""
    models, batches = _small_grid()
    sweep = CharacterizationSweep(
        [get_platform("icl"), get_platform("spr")], models, batches)
    rows = sweep.run()
    comps = compare_platforms(rows, "ICL-8352Y", "SPR-Max-9468")
    speedups = per_model_speedup_range(comps)
    all_faster = all(s > 1.0 for s in speedups.values())
    lo, hi = min(speedups.values()), max(speedups.values())
    in_band = 2.0 <= lo and hi <= 8.0  # paper: 3.2x-6.3x per-model averages
    return FindingResult(
        finding_id=1,
        statement="SPR Max reduces latency / raises throughput vs ICL",
        holds=all_faster and in_band,
        detail=f"per-model mean E2E speedups {lo:.1f}x-{hi:.1f}x "
               f"(paper: 3.2x-6.3x)",
    )


def check_finding_2() -> FindingResult:
    """KF#2: quad_flat is the best memory x clustering configuration."""
    spr = get_platform("spr")
    model = get_model("llama2-13b")
    request = InferenceRequest(batch_size=8)
    e2e: Dict[str, float] = {}
    for numa in EVALUATED_CONFIGS:
        result = run_inference(spr, model, request, NumaBackend(numa=numa))
        e2e[numa.label] = result.e2e_s
    best = min(e2e, key=e2e.get)
    ordering = (e2e["quad_flat"] <= e2e["quad_cache"]
                and e2e["quad_cache"] <= e2e["snc_cache"]
                and e2e["snc_flat"] <= e2e["snc_cache"])
    return FindingResult(
        finding_id=2,
        statement="Flat memory mode with Quadrant clustering is best",
        holds=best == QUAD_FLAT.label and ordering,
        detail=f"E2E by config: " + ", ".join(
            f"{k}={v:.2f}s" for k, v in sorted(e2e.items())),
    )


def check_finding_3() -> FindingResult:
    """KF#3: 48 cores beat 12/24/96 (96 pays inter-socket UPI cost)."""
    spr = get_platform("spr")
    model = get_model("llama2-7b")
    request = InferenceRequest(batch_size=8)
    e2e: Dict[int, float] = {}
    for cores in EVALUATED_CORE_COUNTS:
        result = run_inference(spr, model, request,
                               NumaBackend(cores=cores))
        e2e[cores] = result.e2e_s
    best = min(e2e, key=e2e.get)
    reduction = (1.0 - e2e[48] / e2e[12]) * 100.0
    return FindingResult(
        finding_id=3,
        statement="48 SPR cores are optimal; 96 suffers UPI traffic",
        holds=best == 48 and e2e[96] > e2e[48],
        detail=f"E2E by cores: " + ", ".join(
            f"{k}={v:.2f}s" for k, v in sorted(e2e.items()))
        + f"; 12->48 reduction {reduction:.0f}% (paper ~59.8% avg)",
    )


def check_finding_4() -> FindingResult:
    """KF#4: GPUs win in-memory; AMX CPU wins when GPUs must offload."""
    spr, a100, h100 = (get_platform("spr"), get_platform("a100"),
                       get_platform("h100"))
    request = InferenceRequest(batch_size=1)
    small = get_model("opt-13b")
    big_a = get_model("opt-30b")   # exceeds A100 40 GB
    big_h = get_model("opt-66b")   # exceeds H100 80 GB
    r_small_cpu = run_inference(spr, small, request)
    r_small_a = run_inference(a100, small, request)
    r_big_cpu_a = run_inference(spr, big_a, request)
    r_big_a = run_inference(a100, big_a, request)
    r_big_cpu_h = run_inference(spr, big_h, request)
    r_big_h = run_inference(h100, big_h, request)
    gpu_wins_small = r_small_a.e2e_s < r_small_cpu.e2e_s
    cpu_wins_a = r_big_cpu_a.e2e_s < r_big_a.e2e_s
    cpu_wins_h = r_big_cpu_h.e2e_s < r_big_h.e2e_s
    gain_a = r_big_a.e2e_s / r_big_cpu_a.e2e_s
    gain_h = r_big_h.e2e_s / r_big_cpu_h.e2e_s
    return FindingResult(
        finding_id=4,
        statement="GPUs win in-memory; CPU wins offloaded large models",
        holds=gpu_wins_small and cpu_wins_a and cpu_wins_h,
        detail=(f"OPT-13B: A100 {r_small_cpu.e2e_s / r_small_a.e2e_s:.1f}x "
                f"faster than CPU (paper ~2.9x); OPT-30B: CPU {gain_a:.1f}x "
                f"over A100 (paper ~12.7x); OPT-66B: CPU {gain_h:.1f}x over "
                f"H100 (paper ~5x)"),
    )


def check_finding_5() -> FindingResult:
    """KF#5: at batch 16, H100 overtakes the CPU for LLaMA2-70B at longer
    input lengths while A100 never does."""
    spr, a100, h100 = (get_platform("spr"), get_platform("a100"),
                       get_platform("h100"))
    model = get_model("llama2-70b")
    crossover_h = None
    a100_always_loses = True
    for input_len in (128, 256, 512, 1024):
        request = InferenceRequest(batch_size=16, input_len=input_len)
        cpu = run_inference(spr, model, request)
        gh = run_inference(h100, model, request)
        ga = run_inference(a100, model, request)
        if crossover_h is None and gh.e2e_s < cpu.e2e_s:
            crossover_h = input_len
        if ga.e2e_s < cpu.e2e_s:
            a100_always_loses = False
    holds = (crossover_h is not None and 128 < crossover_h <= 512
             and a100_always_loses)
    return FindingResult(
        finding_id=5,
        statement="H100 overtakes CPU at longer sequences (b=16, 70B); "
                  "A100 never does",
        holds=holds,
        detail=f"H100 crossover at input length {crossover_h} "
               f"(paper: >=256); A100 never crosses: {a100_always_loses}",
    )


ALL_FINDING_CHECKS: List[Callable[[], FindingResult]] = [
    check_finding_1,
    check_finding_2,
    check_finding_3,
    check_finding_4,
    check_finding_5,
]


def check_all_findings() -> List[FindingResult]:
    """Run every Key Finding validator."""
    return [check() for check in ALL_FINDING_CHECKS]
