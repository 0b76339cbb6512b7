"""Extensions: fused attention, prefix caching, INT4/KV quantization.

* ``ablation_fused_attention`` — FlashAttention-style fusion removes the
  O(seq^2) score-matrix round trips; the ablation shows when it matters
  (long prompts) and when it cannot (decode is weight-bound).
* ``ext_prefix_cache`` — caching a shared system prompt's KV converts its
  prefill into a one-time cost: the cheapest TTFT lever on CPUs.
* ``ext_quant_matrix`` — the full quantization design space on SPR:
  {BF16, W8, W4} x {BF16-KV, INT8-KV}, at short and long context.
"""

from repro.core.report import ExperimentReport
from repro.engine.backend import QuantizedBackend
from repro.engine.executor import OperatorExecutor
from repro.engine.inference import InferenceSimulator, simulate
from repro.engine.request import InferenceRequest
from repro.experiments.base import register
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.opgraph import prefill_ops
from repro.models.registry import get_model
from repro.quant.weightonly import QuantConfig, QuantScheme
from repro.serving.prefix_cache import PrefixCacheModel


@register("ablation_fused_attention")
def run_fused() -> ExperimentReport:
    """Prefill time with naive vs fused attention across prompt lengths."""
    spr = get_platform("spr")
    model = get_model("llama2-13b")
    rows = []
    for seq in (128, 1024, 4096):
        request = InferenceRequest(batch_size=1, input_len=seq, output_len=2)
        executor = InferenceSimulator(spr)._executor(model, request)
        naive = sum(t.time_s for t in executor.time_ops(
            prefill_ops(model, 1, seq)))
        fused = sum(t.time_s for t in executor.time_ops(
            prefill_ops(model, 1, seq, fused_attention=True)))
        rows.append([seq, naive * 1000, fused * 1000, naive / fused])
    notes = [
        "fusion removes the O(seq^2) P-matrix round trips; the gain grows "
        "with prompt length (negligible at 128, substantial at 4K)",
        "decode is untouched — its bottleneck is the weight stream, not "
        "score traffic — so fusion is purely a TTFT optimization here",
    ]
    return ExperimentReport(
        experiment_id="ablation_fused_attention",
        title="Fused (FlashAttention-style) vs naive attention prefill "
              "(LLaMA2-13B on SPR)",
        headers=["prompt len", "naive ms", "fused ms", "speedup"],
        rows=rows,
        notes=notes,
    )


@register("ext_prefix_cache")
def run_prefix_cache() -> ExperimentReport:
    """System-prompt KV caching: cold vs warm TTFT on the SPR CPU."""
    model_cache = PrefixCacheModel(get_platform("spr"))
    model = get_model("llama2-13b")
    rows = []
    for prefix, unique in ((512, 64), (1024, 64), (2048, 128)):
        estimate = model_cache.estimate(model, prefix, unique)
        rows.append([
            prefix, unique,
            estimate.cold_ttft_s * 1000,
            estimate.warm_ttft_s * 1000,
            estimate.ttft_speedup,
            estimate.amortized_ttft_s(0.9) * 1000,
            model_cache.break_even_requests(model, prefix, unique),
        ])
    notes = [
        "prefill is the CPU's weak phase vs GPUs (KF#4), so converting the "
        "shared prefix into a one-time cost attacks exactly that gap",
        "break-even is ~1 request: the cached prefill would have been paid "
        "by the first request anyway",
    ]
    return ExperimentReport(
        experiment_id="ext_prefix_cache",
        title="Shared-prefix KV caching (LLaMA2-13B on SPR)",
        headers=["prefix", "unique", "cold TTFT ms", "warm TTFT ms",
                 "speedup", "TTFT @90% hits ms", "break-even reqs"],
        rows=rows,
        notes=notes,
    )


@register("ext_quant_matrix")
def run_quant_matrix() -> ExperimentReport:
    """The {W8,W4} x {BF16,INT8 KV} design space on SPR."""
    spr = get_platform("spr")
    rows = []
    cases = [
        ("llama2-13b", 128),
        ("opt-66b", 128),
        ("opt-66b", 2048),
    ]
    for model_key, context in cases:
        model = get_model(model_key)
        request = InferenceRequest(batch_size=1, input_len=context,
                                   output_len=8)
        base = simulate(spr, model, request)
        for scheme, kv_dtype, label in (
                (QuantScheme.WEIGHT_ONLY_INT8, DType.BF16, "w8"),
                (QuantScheme.WEIGHT_ONLY_INT4, DType.BF16, "w4"),
                (QuantScheme.WEIGHT_ONLY_INT8, DType.INT8, "w8+kv8"),
                (QuantScheme.WEIGHT_ONLY_INT4, DType.INT8, "w4+kv8")):
            quant = QuantConfig(scheme=scheme, kv_dtype=kv_dtype)
            result = InferenceSimulator(
                spr, backend=QuantizedBackend(quant)).run(model, request)
            rows.append([model.name, context, label,
                         base.tpot_s * 1000, result.tpot_s * 1000,
                         base.tpot_s / result.tpot_s])
    notes = [
        "w4 beats w8 by ~2x on decode (bytes rule a bandwidth-bound "
        "phase); for OPT-66B both also un-spill HBM for compounding gains",
        "INT8 KV adds on top only at long context, where cache reads are "
        "a visible share of decode traffic",
    ]
    return ExperimentReport(
        experiment_id="ext_quant_matrix",
        title="Quantization design space on SPR (decode TPOT)",
        headers=["model", "context", "scheme", "BF16 TPOT ms",
                 "quant TPOT ms", "gain"],
        rows=rows,
        notes=notes,
    )
