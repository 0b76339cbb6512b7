"""Extensions: TP-vs-PP comparison and SLO-constrained serving capacity.

* ``ext_pp_vs_tp`` — the two disciplined ways to use the second socket:
  tensor parallelism cuts per-token latency; pipeline parallelism
  preserves it but doubles steady-state throughput with zero allreduce.
  Which to pick is workload-dependent — exactly the kind of guidance the
  paper's Section VI gestures toward.
* ``ext_slo`` — maximum sustainable request rate under chatbot-style
  latency SLOs, per batching policy: the serving-level consequence of the
  paper's TTFT/TPOT metrics.
"""

from repro.core.report import ExperimentReport
from repro.engine.backend import TensorParallelBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.parallel.pipeline_parallel import PipelineParallelSimulator
from repro.serving.scheduler import BatchingSimulator
from repro.serving.slo import SLO, max_sustainable_rate


@register("ext_pp_vs_tp")
def run_pp_vs_tp() -> ExperimentReport:
    """Per-token latency and steady throughput: TP=2 vs PP=2 vs 1 socket."""
    spr = get_platform("spr")
    rows = []
    for model_key, batch in (("llama2-13b", 1), ("llama2-13b", 16),
                             ("opt-66b", 1)):
        model = get_model(model_key)
        request = InferenceRequest(batch_size=batch)
        single = InferenceSimulator(spr).run(model, request)
        tp = InferenceSimulator(
            spr, backend=TensorParallelBackend()).run(model, request)
        pp = PipelineParallelSimulator(spr).estimate(model, request)
        rows.append([
            model.name, batch,
            single.tpot_s * 1000,
            tp.tpot_s * 1000,
            pp.token_latency_s * 1000,
            single.tpot_s / tp.tpot_s,
            pp.throughput_gain,
        ])
    notes = [
        "TP halves per-token latency (sharded weight streams) at the cost "
        "of two allreduces per layer; PP keeps latency but doubles "
        "steady-state throughput with perfectly local weights",
        "for the DDR-spilling OPT-66B both schemes also un-spill HBM, "
        "giving super-linear gains",
        "rule: latency-critical -> TP; throughput-critical -> PP",
    ]
    return ExperimentReport(
        experiment_id="ext_pp_vs_tp",
        title="Tensor vs pipeline parallelism across SPR sockets",
        headers=["model", "batch", "1-socket TPOT ms", "TP2 TPOT ms",
                 "PP2 token lat ms", "TP latency gain", "PP thpt gain"],
        rows=rows,
        notes=notes,
    )


@register("ext_slo")
def run_slo() -> ExperimentReport:
    """Max sustainable chatbot rate under SLOs, per batching policy."""
    simulator = BatchingSimulator(get_platform("spr"),
                                  get_model("llama2-7b"), max_batch=8)
    slo = SLO(ttft_s=1.0, tpot_s=0.06)
    rows = []
    for policy in ("static", "continuous", "chunked"):
        rate = max_sustainable_rate(simulator, slo, policy=policy)
        rows.append([policy, slo.ttft_s, slo.tpot_s, rate])
    best = max(rows, key=lambda row: row[3])
    notes = [
        f"best policy under this SLO: {best[0]} at {best[3]:.1f} req/s",
        "iteration-level scheduling converts the paper's raw throughput "
        "numbers into SLO-compliant capacity",
    ]
    return ExperimentReport(
        experiment_id="ext_slo",
        title="Max sustainable rate under chatbot SLOs (LLaMA2-7B on SPR)",
        headers=["policy", "TTFT SLO s", "TPOT SLO s", "max rate req/s"],
        rows=rows,
        notes=notes,
    )
