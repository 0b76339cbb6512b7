"""Extensions: batch-scaling knees and the next-CPU-generation sweep.

* ``ext_batch_knee`` — fit the saturating throughput(batch) curve per
  platform and report the knee batch: where more batching stops paying.
* ``whatif_future_cpu`` — sweep hypothetical SPR successors (scaled AMX
  peak x scaled memory bandwidth) against the H100 for an in-memory
  model: which axis closes the gap, and how much of it is needed.
"""

from repro.analysis.scaling_laws import measure_batch_scaling
from repro.core.report import ExperimentReport
from repro.core.runner import run_inference
from repro.engine.inference import simulate
from repro.engine.request import InferenceRequest
from repro.experiments.base import register
from repro.hardware.future import scaled_spr
from repro.hardware.registry import get_platform
from repro.models.registry import get_model


@register("ext_batch_knee")
def run_batch_knee() -> ExperimentReport:
    """Fitted throughput-saturation knees per platform (LLaMA2-13B)."""
    model = get_model("llama2-13b")
    rows = []
    for platform_key in ("icl", "spr", "h100"):
        platform = get_platform(platform_key)
        fit = measure_batch_scaling(platform, model)
        rows.append([
            platform.name,
            fit.t_max,
            fit.b_half,
            fit.knee_batch(),
            fit.fit_error() * 100,
        ])
    notes = [
        "throughput follows T(b) = T_max * b/(b + b_half): weights "
        "amortize across the batch until compute saturates",
        "lower-bandwidth platforms saturate at smaller batches (their "
        "asymptote is compute-set and nearer); the knee column is the "
        "smallest batch reaching 80% of the asymptote",
    ]
    return ExperimentReport(
        experiment_id="ext_batch_knee",
        title="Batch-scaling knees (LLaMA2-13B, fitted saturation curves)",
        headers=["platform", "fitted T_max tok/s", "b_half",
                 "knee batch (80%)", "fit err %"],
        rows=rows,
        notes=notes,
    )


@register("whatif_future_cpu")
def run_future_cpu() -> ExperimentReport:
    """Scaled-SPR sweep vs H100 for in-memory OPT-13B at batch 1."""
    model = get_model("opt-13b")
    request = InferenceRequest(batch_size=1)
    h100 = run_inference(get_platform("h100"), model, request)
    rows = []
    for compute_scale, bandwidth_scale in (
            (1, 1), (2, 1), (4, 1), (1, 2), (1, 3), (2, 2), (2, 3)):
        platform = scaled_spr(compute_scale, bandwidth_scale)
        result = simulate(platform, model, request)
        rows.append([
            f"{compute_scale}x AMX, {bandwidth_scale}x BW",
            result.ttft_s * 1000,
            result.tpot_s * 1000,
            result.e2e_s / h100.e2e_s,
        ])
    baseline = rows[0][3]
    bw_only = next(row[3] for row in rows if row[0] == "1x AMX, 3x BW")
    compute_only = next(row[3] for row in rows if row[0] == "4x AMX, 1x BW")
    notes = [
        f"H100 reference: {h100.e2e_s * 1000:.0f} ms E2E; stock SPR is "
        f"{baseline:.1f}x slower",
        f"4x AMX alone barely moves E2E ({compute_only:.2f}x vs H100) — "
        "batch-1 serving is decode-dominated and decode is bandwidth-"
        f"bound; 3x bandwidth alone reaches {bw_only:.2f}x",
        "conclusion: the next CPU generation's inference-relevant axis is "
        "memory bandwidth (MCR DIMMs / faster HBM), not more TMUL tiles",
    ]
    return ExperimentReport(
        experiment_id="whatif_future_cpu",
        title="Future-CPU sweep vs H100 (OPT-13B, batch 1, in-memory)",
        headers=["SPR successor", "TTFT ms", "TPOT ms", "E2E vs H100"],
        rows=rows,
        notes=notes,
    )
