"""Fig. 15 — counters per NUMA configuration (LLaMA2-13B, batch 8).

Paper observations: SNC modes suffer frequent remote (sub-node) LLC
accesses; flat mode slightly outperforms cache mode by using HBM's
bandwidth more effectively.
"""

from repro.core.report import ExperimentReport
from repro.engine.backend import NumaBackend
from repro.engine.request import InferenceRequest
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.modes import EVALUATED_CONFIGS
from repro.perfcounters.collector import CounterModel


@register("fig15")
def run() -> ExperimentReport:
    """MPKI, core utilization, remote LLC accesses per NUMA config."""
    spr = get_platform("spr")
    model = get_model("llama2-13b")
    request = InferenceRequest(batch_size=8)
    rows = []
    remote = {}
    walls = {}
    for config in EVALUATED_CONFIGS:
        counter_model = CounterModel(spr, NumaBackend(numa=config))
        est = counter_model.estimate(model, request)
        remote[config.label] = est.remote_llc_accesses
        walls[config.label] = est.wall_time_s
        rows.append([
            config.label,
            est.llc_mpki,
            est.core_utilization * 100.0,
            est.remote_llc_accesses,
            est.wall_time_s,
        ])
    snc_vs_quad = remote["snc_flat"] / remote["quad_flat"]
    notes = [
        "paper: snc modes suffer frequent remote accesses to other NUMA "
        f"nodes; measured snc/quad remote-access ratio {snc_vs_quad:.0f}x",
        "paper: flat mode slightly outperforms cache mode; measured "
        f"quad_flat {walls['quad_flat']:.2f}s vs quad_cache "
        f"{walls['quad_cache']:.2f}s",
    ]
    return ExperimentReport(
        experiment_id="fig15",
        title="LLaMA2-13B (batch 8) counters per NUMA configuration",
        headers=["config", "LLC MPKI", "core util %", "remote LLC accesses",
                 "E2E s"],
        rows=rows,
        notes=notes,
    )
