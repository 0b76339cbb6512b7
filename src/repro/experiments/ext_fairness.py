"""Extension: multi-tenant fairness and admission control at the fleet.

Per-request metrics hide who the capacity went to. This experiment puts
a Zipf-skewed multi-tenant workload (8 users, 2 apps, multi-stage
interactions) through a 2-replica SPR fleet at roughly 2x its service
capacity and asks the two questions a multi-tenant operator actually
has:

1. **Scheduling** — with demand skewed, FCFS admission serves tenants
   in proportion to their (skewed) demand: the heavy tenant monopolizes
   batch slots and everyone else's SLO attainment collapses. The
   virtual-token-counter (VTC) and weighted-service-counter (WSC)
   admission schedulers (:mod:`repro.cluster.admission`) pick the
   least-served ready tenant instead, which converges to (weighted)
   max-min token service — measured here as the Jain fairness index
   over per-tenant served tokens at the contention cutoff.
2. **Throttling** — under the same overload, what does the door buy?
   With a user patience bound (requests whose TTFT blows past the bound
   are abandoned, their generated answers pure waste), no door means
   every admitted request queues and a fifth of all generated tokens
   are wasted on abandoned answers. A per-user sliding-window door
   (:mod:`repro.workloads.throttling`) refuses the overload up front:
   the interaction-level policy (decide at stage 0, never
   mid-interaction) wastes nothing, while the naive per-request policy
   aborts interactions mid-chain and turns their completed stages into
   waste.
"""

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    ReplicaSpec,
    RoundRobinRouter,
    fairness_report,
)
from repro.core.report import ExperimentReport
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.slo import SLO
from repro.workloads import TenantStream, TenantWorkloadSpec, ThrottleConfig

MODEL_KEY = "llama2-7b"
SLO_TARGET = SLO(ttft_s=2.0, tpot_s=0.2)
SEED = 42
#: ~2x the 2-replica fleet's service rate for this request mix (the
#: makespan runs ~2.2x past the last arrival at this rate).
OVERLOAD_RATE = 8.0
REQUESTS = 300
USERS = 8
#: Patience bound for the throttling scenario: a request whose TTFT
#: exceeds this is abandoned by its user, its answer wasted work.
PATIENCE_TTFT_S = 10.0
#: WSC scenario: tenant 1 (second-heaviest demand) pays for 3x weight.
WSC_WEIGHTS = ((1, 3.0),)
HEADERS = ["scenario", "configuration", "jain index", "attainment",
           "throttle rate", "wasted tokens", "detail"]


def _tenant_spec() -> TenantWorkloadSpec:
    return TenantWorkloadSpec(
        users=USERS,
        apps=2,
        zipf_s=1.4,
        input_len_range=(32, 128),
        output_len_range=(32, 96),
        interaction_stages=(1, 3),
    )


def _stream(throttle=None) -> TenantStream:
    return TenantStream(spec=_tenant_spec(), rate_per_s=OVERLOAD_RATE,
                        count=REQUESTS, seed=SEED, throttle=throttle)


def _run(scheduler, throttle=None, weights=None, abandoned_ttft_s=None):
    """One fleet run; returns (ClusterReport, FairnessReport)."""
    stream = _stream(throttle)
    config = ClusterConfig([ReplicaSpec(
        get_platform("spr"), get_model(MODEL_KEY), count=2, max_batch=8,
        scheduler=scheduler, scheduler_weights=weights)])
    simulator = ClusterSimulator(config.build_fleet(), RoundRobinRouter())
    report = simulator.run(stream.full())
    fairness = fairness_report(stream.decisions(), report.completed,
                               slo=SLO_TARGET, weights=dict(weights or ()),
                               abandoned_ttft_s=abandoned_ttft_s)
    return report, fairness


def _attainment_spread(fairness) -> str:
    values = [tenant.attainment for tenant in fairness.tenants]
    return f"per-tenant att {min(values):.2f}..{max(values):.2f}"


@register("ext_fairness")
def run() -> ExperimentReport:
    """FCFS vs VTC vs WSC, and door throttling, under skewed overload."""
    rows = []
    jain = {}

    # 1. Admission scheduling under 2x-overload Zipf demand.
    for scheduler, weights in (("fcfs", None), ("vtc", None),
                               ("wsc", WSC_WEIGHTS)):
        report, fairness = _run(scheduler, weights=weights)
        jain[scheduler] = fairness.jain_index
        mean_att = sum(t.attainment for t in fairness.tenants) / USERS
        rows.append([
            "scheduler", scheduler.upper(), f"{fairness.jain_index:.3f}",
            f"{mean_att:.2f}", "0.00", "0",
            _attainment_spread(fairness),
        ])

    # 2. Door throttling with impatient users (VTC fleet throughout).
    throttles = (
        ("no door", None),
        ("door: interaction", ThrottleConfig(window_s=10.0,
                                             max_user_requests=6)),
        ("door: per-request", ThrottleConfig(window_s=10.0,
                                             max_user_requests=6,
                                             policy="request")),
    )
    wasted = {}
    for label, throttle in throttles:
        report, fairness = _run("vtc", throttle=throttle,
                                abandoned_ttft_s=PATIENCE_TTFT_S)
        wasted[label] = fairness.wasted_tokens
        mean_att = sum(t.attainment for t in fairness.tenants) / USERS
        admitted = sum(t.admitted for t in fairness.tenants)
        rows.append([
            "throttling", label, f"{fairness.jain_index:.3f}",
            f"{mean_att:.2f}", f"{fairness.throttle_rate:.2f}",
            str(fairness.wasted_tokens),
            f"{admitted} admitted of {REQUESTS}",
        ])

    notes = [
        f"{USERS} users / Zipf s=1.4 demand at {OVERLOAD_RATE} req/s "
        f"(~2x capacity), {REQUESTS} requests, 2x SPR, max_batch=8.",
        "Jain index over per-tenant served tokens at the last-arrival "
        "cutoff: FCFS mirrors the demand skew "
        f"({jain['fcfs']:.3f}); VTC ({jain['vtc']:.3f}) and WSC "
        f"({jain['wsc']:.3f}) converge to (weighted) max-min service.",
        f"Wasted tokens with {PATIENCE_TTFT_S:.0f}s patience: no door "
        f"{wasted['no door']}, interaction-level door "
        f"{wasted['door: interaction']} (decides before stage 0, never "
        f"aborts), per-request door {wasted['door: per-request']} "
        "(mid-chain refusals abort interactions and waste their "
        "completed stages).",
        "WSC weights: tenant 1 at 3.0, everyone else 1.0; its index is "
        "weighted service, so equal-weighted VTC and weighted WSC "
        "both score near max-min.",
    ]
    return ExperimentReport(
        experiment_id="ext_fairness",
        title="Extension: multi-tenant fairness & admission control "
              "(FCFS vs VTC vs WSC, door throttling)",
        headers=HEADERS,
        rows=rows,
        notes=notes,
    )
