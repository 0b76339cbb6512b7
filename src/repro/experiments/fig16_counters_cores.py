"""Fig. 16 — counters vs core count (LLaMA2-7B, batch 8).

Paper observation: 96 cores perform poorly because inter-socket traffic
saturates UPI, visible as a UPI-utilization spike.
"""

from repro.core.report import ExperimentReport
from repro.engine.backend import NumaBackend
from repro.engine.request import InferenceRequest
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.perfcounters.collector import CounterModel
from repro.scaling.cores import EVALUATED_CORE_COUNTS


@register("fig16")
def run() -> ExperimentReport:
    """MPKI, core utilization, UPI utilization per core count."""
    spr = get_platform("spr")
    model = get_model("llama2-7b")
    request = InferenceRequest(batch_size=8)
    rows = []
    upi = {}
    walls = {}
    for cores in EVALUATED_CORE_COUNTS:
        counter_model = CounterModel(spr, NumaBackend(cores=cores))
        est = counter_model.estimate(model, request)
        upi[cores] = est.upi_utilization
        walls[cores] = est.wall_time_s
        rows.append([
            cores,
            est.llc_mpki,
            est.core_utilization * 100.0,
            est.upi_utilization * 100.0,
            est.wall_time_s,
        ])
    notes = [
        f"UPI utilization spikes at 96 cores: {upi[96] * 100:.0f}% vs "
        f"{upi[48] * 100:.0f}% at 48 (paper: inter-socket communication "
        "hurts both latency and throughput)",
        f"E2E: 48 cores {walls[48]:.2f}s vs 96 cores {walls[96]:.2f}s — "
        "more cores are not better past one socket",
    ]
    return ExperimentReport(
        experiment_id="fig16",
        title="LLaMA2-7B (batch 8) counters vs core count",
        headers=["cores", "LLC MPKI", "core util %", "UPI util %", "E2E s"],
        rows=rows,
        notes=notes,
    )
