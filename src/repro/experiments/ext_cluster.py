"""Extension: multi-replica cluster serving (routing, scaling, failures).

A fleet sized from one device's steady-state capacity still meets
dynamics a steady state cannot see — queue imbalance across replicas,
bursty arrivals, provisioning lag, and node failures. This experiment
drives the discrete-event cluster simulator (:mod:`repro.cluster`)
through four scenarios:

1. **planner cross-validation** — a fleet sized by ceiling division over
   :func:`~repro.cluster.fluid.saturation_rate` attains the SLO when
   actually simulated at the target rate;
2. **heterogeneous routing** — on a mixed SPR + H100 fleet under a
   bursty, phase-mixed trace, the cost/SLO-aware
   :class:`~repro.cluster.PhaseAwareRouter` beats round-robin goodput;
3. **node failure** — a mid-burst replica loss requeues its in-flight
   work (no request lost) at a measurable wasted-token cost;
4. **provisioning lag** — the same burst absorbed by an autoscaler is
   served better when capacity arrives sooner.
"""

import math

from repro.cluster import (
    Autoscaler,
    ClusterConfig,
    ClusterSimulator,
    JoinShortestQueueRouter,
    LeastOutstandingTokensRouter,
    NodeFailure,
    PhaseAwareRouter,
    ReplicaNode,
    ReplicaSpec,
    RoundRobinRouter,
    saturation_rate,
)
from repro.core.report import ExperimentReport
from repro.experiments.base import register
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import (
    bursty_arrivals,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serving.slo import SLO
from repro.workloads.generator import (
    WorkloadSpec,
    batch_analytics_workload,
    chatbot_workload,
)

MODEL_KEY = "llama2-7b"
SLO_TARGET = SLO(ttft_s=2.0, tpot_s=0.2)
SEED = 23
HEADERS = ["scenario", "configuration", "attainment", "goodput tok/s",
           "$ / Mtok", "detail"]


def _decode_heavy_spec() -> WorkloadSpec:
    """Short prompts, long generations — the decode-dominated mix."""
    return WorkloadSpec(
        name="agentic",
        input_len_range=(16, 64),
        output_len_range=(96, 192),
        batch_size=1,
        priority_metric="tpot_s",
    )


def _spr_fleet(count: int) -> list:
    model = get_model(MODEL_KEY)
    spr = get_platform("spr")
    return [ReplicaNode(f"spr-{i}", spr, model) for i in range(count)]


def _hetero_fleet() -> list:
    model = get_model(MODEL_KEY)
    return (_spr_fleet(2)
            + [ReplicaNode("h100-0", get_platform("h100"), model)])


def _mixed_bursty_trace() -> list:
    """Phase-mixed bursty trace: prefill-heavy + decode-heavy streams.

    During bursts the combined ~8 req/s exceeds the fleet's decode
    capacity, so queue placement — not raw capacity — decides SLO
    attainment; that is the regime routing policies differ in.
    """
    prefill_heavy = bursty_arrivals(0.4, 4.0, 25,
                                    batch_analytics_workload(),
                                    burst_s=15.0, period_s=60.0, seed=SEED)
    decode_heavy = bursty_arrivals(0.4, 4.0, 25, _decode_heavy_spec(),
                                   burst_s=15.0, period_s=60.0,
                                   seed=SEED + 1)
    return merge_arrivals(prefill_heavy, decode_heavy)


@register("ext_cluster")
def run() -> ExperimentReport:
    """Cluster scenarios: validation, routing, failure, provisioning lag."""
    rows = []
    notes = []

    # 1. Planner cross-validation at a low, comfortably served rate.
    rate = 0.5
    replica = ReplicaSpec(get_platform("spr"), get_model(MODEL_KEY))
    fleet_size = math.ceil(
        rate / saturation_rate(ClusterConfig((replica,)), slo=SLO_TARGET))
    arrivals = poisson_arrivals(rate, 24, chatbot_workload(), seed=SEED)
    report = ClusterSimulator(_spr_fleet(fleet_size),
                              RoundRobinRouter()).run(arrivals)
    rows.append(["planner-check", f"{fleet_size}x SPR @ {rate} req/s",
                 report.attainment(arrivals, SLO_TARGET),
                 report.goodput(arrivals, SLO_TARGET),
                 report.dollars_per_million_tokens(),
                 f"planner sized {fleet_size} device(s)"])
    notes.append(
        f"planner-sized fleet ({fleet_size}x SPR for {rate} req/s) attains "
        f"{report.attainment(arrivals, SLO_TARGET):.0%} of the SLO in "
        "simulation — static sizing and the event loop agree at low rate")

    # 2. Routing policies on the heterogeneous fleet, bursty mixed trace.
    trace = _mixed_bursty_trace()
    goodputs = {}
    for router in (RoundRobinRouter(), JoinShortestQueueRouter(),
                   LeastOutstandingTokensRouter(),
                   PhaseAwareRouter(slo=SLO_TARGET)):
        report = ClusterSimulator(_hetero_fleet(), router).run(trace)
        goodputs[router.name] = report.goodput(trace, SLO_TARGET)
        split = ", ".join(f"{s.name}:{s.completed}"
                          for s in report.node_stats)
        rows.append(["routing", f"2x SPR + 1x H100, {router.name}",
                     report.attainment(trace, SLO_TARGET),
                     goodputs[router.name],
                     report.dollars_per_million_tokens(),
                     split])
    gain = goodputs["phase_aware"] / goodputs["round_robin"]
    notes.append(
        "cost/SLO-aware routing beats round-robin goodput "
        f"{gain:.2f}x under bursts: long-prefill requests go to the "
        "compute-rich H100, decode-heavy ones to the bandwidth-rich SPR "
        "replicas, and backlog-aware feasibility absorbs the burst")

    # 3. Node failure mid-burst: requeue accounting, nothing lost.
    arrivals = poisson_arrivals(2.0, 24, chatbot_workload(), seed=SEED)
    report = ClusterSimulator(
        _spr_fleet(2), LeastOutstandingTokensRouter(),
        events=[NodeFailure(time_s=3.0, node="spr-1")]).run(arrivals)
    rows.append(["failure", "2x SPR, spr-1 dies at t=3s",
                 report.attainment(arrivals, SLO_TARGET),
                 report.goodput(arrivals, SLO_TARGET),
                 report.dollars_per_million_tokens(),
                 f"requeued={report.requeued_requests} "
                 f"wasted={report.wasted_tokens} tok, "
                 f"completed={len(report.completed)}/{len(arrivals)}"])
    notes.append(
        f"replica failure requeues {report.requeued_requests} in-flight "
        f"request(s) at a cost of {report.wasted_tokens} wasted tokens; "
        "every request still completes — the survivor absorbs the work")

    # 4. Autoscaler: same burst, two provisioning lags.
    burst = bursty_arrivals(0.2, 3.0, 40, _decode_heavy_spec(),
                            burst_s=20.0, period_s=120.0, seed=SEED)
    template = ReplicaSpec(get_platform("spr"), get_model(MODEL_KEY))
    lag_ttft = {}
    for lag in (5.0, 40.0):
        scaler = Autoscaler(template, max_nodes=4,
                            scale_up_queue_per_node=2.0,
                            provisioning_lag_s=lag, sample_interval_s=2.0)
        report = ClusterSimulator(_spr_fleet(1), JoinShortestQueueRouter(),
                                  autoscaler=scaler).run(burst)
        serving = report.to_serving_report()
        lag_ttft[lag] = serving.p95_ttft_s
        rows.append(["autoscale", f"1->{len(report.node_stats)}x SPR, "
                     f"lag={lag:.0f}s",
                     report.attainment(burst, SLO_TARGET),
                     report.goodput(burst, SLO_TARGET),
                     report.dollars_per_million_tokens(),
                     f"p95 TTFT={serving.p95_ttft_s:.2f}s"])
    notes.append(
        "provisioning lag is the autoscaler's whole game: the same burst "
        f"ends with p95 TTFT {lag_ttft[5.0]:.2f}s at 5s lag vs "
        f"{lag_ttft[40.0]:.2f}s at 40s — capacity that arrives after the "
        "burst mostly serves the backlog it caused")

    return ExperimentReport(
        experiment_id="ext_cluster",
        title="Cluster serving: routing, failures, autoscaling "
              f"({get_model(MODEL_KEY).name})",
        headers=HEADERS,
        rows=rows,
        notes=notes,
    )
