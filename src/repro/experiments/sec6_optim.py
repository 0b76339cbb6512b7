"""Section VI — proposed optimizations, quantified on the simulator.

1. NUMA-aware SNC allocation: how much of the snc-vs-quad gap software
   placement recovers.
2. Hot/cold cross-socket placement: bandwidth gain from pinning hot
   traffic locally when a model spills past one socket.
3. CPU-GPU hybrid execution: best layer split for offloaded models and
   its gain over pure FlexGen-style offloading.
"""

from repro.core.report import ExperimentReport
from repro.engine.backend import NumaBackend
from repro.engine.inference import EngineConfig, InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.model import hot_cold_speedup
from repro.numa.modes import QUAD_FLAT, SNC_FLAT
from repro.optim.hybrid import HybridPlanner
from repro.utils.units import gb_per_s


@register("sec6")
def run() -> ExperimentReport:
    """Quantify both Section VI optimization proposals."""
    spr = get_platform("spr")
    rows = []
    notes = []

    # 1. NUMA-aware SNC allocation.
    model = get_model("llama2-13b")
    request = InferenceRequest(batch_size=8)
    naive = InferenceSimulator(
        spr, backend=NumaBackend(numa=SNC_FLAT)).run(model, request)
    aware = InferenceSimulator(
        spr, backend=NumaBackend(numa=SNC_FLAT, numa_aware=True)
    ).run(model, request)
    quad = InferenceSimulator(
        spr, EngineConfig(numa=QUAD_FLAT)).run(model, request)
    rows.append(["numa-aware snc", model.name,
                 f"{naive.e2e_s / aware.e2e_s:.2f}x vs naive snc_flat",
                 f"{(1.0 - aware.e2e_s / naive.e2e_s) * 100.0:.1f}% "
                 "latency reduction"])
    notes.append(
        f"NUMA-aware snc_flat {aware.e2e_s:.2f}s vs naive "
        f"{naive.e2e_s:.2f}s vs quad_flat {quad.e2e_s:.2f}s — "
        "software placement recovers most of the snc gap")

    # 2. Hot/cold placement for cross-socket spills.
    local_bw = gb_per_s(588.0)   # HBM
    remote_bw = gb_per_s(40.0)   # UPI-limited remote DDR path
    naive_hot = 0.5              # interleaved pages: local share = capacity share
    aware_hot = 0.9              # hot activations/KV pinned locally
    gain = hot_cold_speedup(naive_hot, aware_hot, local_bw, remote_bw)
    rows.append(["hot/cold placement", "cross-socket spill",
                 f"{gain:.2f}x effective bandwidth",
                 f"hot traffic fraction {naive_hot} -> {aware_hot}"])
    notes.append("placing hot activations in HBM/local DDR and cold data "
                 "remotely multiplies effective bandwidth for spilled models")

    # 3. CPU-GPU hybrid execution for offloaded models.
    for gpu_key, model_key in (("a100", "opt-30b"), ("h100", "opt-66b")):
        gpu = get_platform(gpu_key)
        big = get_model(model_key)
        plan = HybridPlanner(spr, gpu).plan(big, InferenceRequest(batch_size=1))
        rows.append([
            "hybrid cpu-gpu", f"{big.name} on {gpu.name}",
            f"{plan.speedup_vs_gpu_offload:.1f}x vs pure offloading",
            f"best CPU layer fraction {plan.cpu_layer_fraction:.2f}",
        ])
    notes.append("assigning layers to the CPU removes PCIe weight streaming "
                 "from the GPU's critical path (paper: 'exploiting CPU "
                 "computation resources can benefit large models')")

    return ExperimentReport(
        experiment_id="sec6",
        title="Section VI optimization studies",
        headers=["optimization", "scenario", "gain", "detail"],
        rows=rows,
        notes=notes,
    )
