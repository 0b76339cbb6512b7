"""Extension: mixed-backend fleets through the unified backend layer.

Section VI of the paper sizes homogeneous fleets; real deployments mix
configurations — keep some replicas at full precision for quality-
sensitive traffic while quantized and tensor-parallel replicas carry
bulk throughput. The unified :class:`~repro.engine.backend
.ExecutionBackend` layer makes such fleets a first-class simulation:
every replica prices through its own backend-keyed decode cost table,
so routing, event-horizon fast-forward, and SLO scoring all see each
replica's true speed.

Scenarios:

1. **per-backend latency** — one request through each backend on SPR:
   the composition (INT8, TP2, INT8 over TP2) and its TTFT/TPOT effect;
2. **fleet mixes** — the same decode-heavy trace served by a BF16
   fleet, an INT8-TP2 fleet, and the 2+2 mix, at equal replica count.
"""

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    JoinShortestQueueRouter,
    ReplicaSpec,
)
from repro.core.report import ExperimentReport
from repro.engine.backend import parse_backend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import bursty_arrivals
from repro.serving.slo import SLO
from repro.workloads.generator import WorkloadSpec

MODEL_KEY = "llama2-7b"
SLO_TARGET = SLO(ttft_s=2.0, tpot_s=0.2)
SEED = 23
HEADERS = ["scenario", "configuration", "attainment", "goodput tok/s",
           "$ / Mtok", "detail"]


def _decode_heavy_spec() -> WorkloadSpec:
    """Short prompts, long generations — decode dominates, so backend
    bandwidth savings show directly in goodput."""
    return WorkloadSpec(
        name="agentic",
        input_len_range=(16, 64),
        output_len_range=(96, 192),
        batch_size=1,
        priority_metric="tpot_s",
    )


def _trace() -> list:
    return bursty_arrivals(0.5, 5.0, 40, _decode_heavy_spec(),
                           burst_s=15.0, period_s=60.0, seed=SEED)


def _fleet(specs: list) -> ClusterConfig:
    model = get_model(MODEL_KEY)
    spr = get_platform("spr")
    return ClusterConfig([
        ReplicaSpec(spr, model, count=count,
                    backend=None if spec is None else parse_backend(spec))
        for spec, count in specs
    ])


@register("ext_backends")
def run() -> ExperimentReport:
    """Backend composition: per-backend latency and mixed fleets."""
    rows = []
    notes = []
    model = get_model(MODEL_KEY)
    spr = get_platform("spr")
    request = InferenceRequest(batch_size=1, input_len=128, output_len=64)

    # 1. One request through each backend composition on SPR.
    tpots = {}
    for spec in ("bf16", "int8", "tp2", "int8-tp2"):
        backend = parse_backend(spec)
        result = InferenceSimulator(spr, backend=backend).run(model, request)
        tpots[spec] = result.tpot_s
        rows.append(["latency", f"1x SPR, {backend.label}", "", "", "",
                     f"TTFT={result.ttft_s * 1000:.0f}ms "
                     f"TPOT={result.tpot_s * 1000:.1f}ms"])
    notes.append(
        "backends compose: INT8 over TP2 stacks the weight-byte halving "
        f"on the two-socket bandwidth, taking TPOT from "
        f"{tpots['bf16'] * 1000:.1f}ms (BF16) to "
        f"{tpots['int8-tp2'] * 1000:.1f}ms — "
        f"{tpots['bf16'] / tpots['int8-tp2']:.2f}x, priced through one "
        "rewrite pipeline rather than per-feature simulators")

    # 2. Equal-size fleets: all-BF16, all-INT8-TP2, and the 2+2 mix.
    trace = _trace()
    goodputs = {}
    for label, specs in (
            ("4x bf16", [(None, 4)]),
            ("4x int8-tp2", [("int8-tp2", 4)]),
            ("2x bf16 + 2x int8-tp2", [(None, 2), ("int8-tp2", 2)])):
        report = ClusterSimulator(_fleet(specs).build_fleet(),
                                  JoinShortestQueueRouter()).run(trace)
        goodputs[label] = report.goodput(trace, SLO_TARGET)
        split = ", ".join(f"{s.name}:{s.completed}"
                          for s in report.node_stats)
        rows.append(["fleet-mix", label,
                     report.attainment(trace, SLO_TARGET),
                     goodputs[label],
                     report.dollars_per_million_tokens(),
                     split])
    notes.append(
        "a mixed fleet lands between the homogeneous endpoints "
        f"({goodputs['4x bf16']:.1f} vs "
        f"{goodputs['2x bf16 + 2x int8-tp2']:.1f} vs "
        f"{goodputs['4x int8-tp2']:.1f} tok/s goodput): each replica is "
        "priced by its own backend-keyed cost table, so the router sees "
        "the quantized-TP replicas' real speed advantage")

    return ExperimentReport(
        experiment_id="ext_backends",
        title="Mixed-backend fleets: quant / TP composition through one "
              f"backend layer ({model.name})",
        headers=HEADERS,
        rows=rows,
        notes=notes,
    )
