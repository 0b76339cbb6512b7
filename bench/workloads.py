"""The benchmark's four workloads: inputs, the timed call, output checks.

Each workload's ``setup`` builds its inputs from the seed and returns a
state whose ``call()`` is the one timed call into the simulator;
``check`` then checks the outputs. Checks are counted as operations: an invariant
that must hold for any seed, or a comparison against the golden digest
committed for seeds 7 and 8 (``golden/<workload>-seed<N>.json``).
Digest integers must match exactly and floats to 1e-9 relative.

Imports of the simulator happen inside ``setup``, so set-up time covers
exactly what each workload needs, as a ``repro`` CLI call would.

Timings are host time: how long the simulator takes to run. Simulated
time (makespans, TTFTs) is an output, checked here rather than timed.
"""

import json
import os
import re
import time
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
GOLDEN_DIR = os.path.join(BENCH, "golden")
#: Seeds with committed goldens: 7 is the default, 8 is held out.
GOLDEN_SEEDS = (7, 8)
REL_TOL = 1e-9


class Checks:
    """Named pass/fail outcomes, each one counted as an attempted op."""

    def __init__(self):
        self.results = []

    def add(self, name, ok):
        self.results.append([name, bool(ok)])

    @property
    def failed(self):
        return [name for name, ok in self.results if not ok]


def matches(value, golden):
    """Digest equality: ints and strings exact, floats to REL_TOL."""
    if isinstance(golden, dict):
        return (isinstance(value, dict) and value.keys() == golden.keys()
                and all(matches(value[k], golden[k]) for k in golden))
    if isinstance(golden, list):
        return (isinstance(value, list) and len(value) == len(golden)
                and all(matches(v, g) for v, g in zip(value, golden)))
    if isinstance(golden, float) or isinstance(value, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return value == golden or abs(value - golden) <= REL_TOL * max(
            abs(value), abs(golden))
    return type(value) is type(golden) and value == golden


def golden_path(workload, seed):
    return os.path.join(GOLDEN_DIR, f"{workload}-seed{seed}.json")


def compare_golden(workload, seed, quick, digest, checks):
    """Check *digest* key by key against the golden; returns the status.

    ``skipped`` (no check counted) for quick sizes and seeds without a
    committed golden; those runs are held to the invariants only.
    """
    if quick or seed not in GOLDEN_SEEDS:
        return "skipped"
    with open(golden_path(workload, seed)) as handle:
        golden = json.load(handle)
    # Round-trip so tuples and float formatting match the stored form.
    digest = json.loads(json.dumps(digest))
    checks.add("golden.keys", digest.keys() == golden.keys())
    for key in sorted(golden):
        checks.add(f"golden.{key}", matches(digest.get(key), golden[key]))
    return "matched" if not any(name.startswith("golden.")
                                for name in checks.failed) else "mismatch"


def write_golden(workload, seed, digest):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(workload, seed), "w") as handle:
        json.dump(digest, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- paper-regen ------------------------------------------------------------


def committed_sections(path):
    """``{experiment_id: markdown}`` for each section of EXPERIMENTS.md."""
    with open(path) as handle:
        text = handle.read()
    sections = {}
    for chunk in re.split(r"\n\n(?=### )", text):
        if chunk.startswith("### "):
            experiment_id = chunk[4:chunk.index(":")]
            sections[experiment_id] = chunk.rstrip("\n")
    return sections


class PaperRegen:
    """Every registered experiment, compared to the committed EXPERIMENTS.md.

    Regenerating the paper is what the repository is for, and it runs
    every pricing path: executor/GEMM/op graphs, backends and legacy
    adapters, offload, NUMA, and the static/chunked batching loops.
    The seed does not enter: the experiments fix their own inputs.
    """

    name = "paper-regen"
    #: Quick sizes: a few cheap paper tables and figures.
    QUICK_IDS = ("table1", "table2", "fig6", "fig7", "fig13", "findings")

    def setup(self, seed, quick):
        from repro.experiments import run_all_experiments, run_experiment

        if quick:
            call = lambda: [run_experiment(eid) for eid in self.QUICK_IDS]
        else:
            call = run_all_experiments
        return SimpleNamespace(call=call, quick=quick, generate_s=0.0)

    def check(self, state, reports, checks):
        from repro.calibration.targets import check_all_targets

        committed = committed_sections(os.path.join(ROOT, "EXPERIMENTS.md"))
        for report in reports:
            checks.add(f"section.{report.experiment_id}",
                       committed.get(report.experiment_id)
                       == report.to_markdown())
        if not state.quick:
            checks.add("sections.complete", set(committed)
                       == {report.experiment_id for report in reports})
        results = check_all_targets()
        errors = []
        for result in results:
            checks.add(f"calibration.{result.target.target_id}",
                       result.in_band)
            paper = result.target.paper_value
            errors.append(abs(result.measured - paper) / abs(paper))
        mean_err = sum(errors) / len(errors)
        digest = {
            "experiments": len(reports),
            "calibration": {result.target.target_id: result.measured
                            for result in results},
            "paper_mean_rel_err": mean_err,
        }
        return digest, {"paper_mean_rel_err": mean_err}


# -- fleet workloads ----------------------------------------------------------


def fleet_checks(arrivals, report, checks):
    """Invariants every seed must satisfy; returns the report's digest."""
    from repro.utils.stats import percentile

    completed = report.completed
    checks.add("arrivals.complete_once",
               sorted(r.request_id for r in completed)
               == sorted(a.request_id for a in arrivals))
    checks.add("tokens.conserved", report.generated_tokens
               == sum(a.output_len for a in arrivals))
    checks.add("tokens.wasted_nonnegative", report.wasted_tokens >= 0)
    checks.add("timestamps.ordered", all(
        r.arrival_s <= r.start_s <= r.first_token_s <= r.finish_s
        for r in completed))
    checks.add("nodes.completed_sum", sum(
        s.completed for s in report.node_stats) == len(arrivals))
    checks.add("makespan.last_finish", report.makespan_s
               == max(r.finish_s for r in completed))
    ttfts = [r.ttft_s for r in completed]
    return {
        "requests": len(completed),
        "generated_tokens": report.generated_tokens,
        "wasted_tokens": report.wasted_tokens,
        "requeued": report.requeued_requests,
        "events": len(report.queue_depth_timeline),
        "makespan_s": report.makespan_s,
        "ttft_p50_s": percentile(ttfts, 50),
        "ttft_p99_s": percentile(ttfts, 99),
        "node_iterations": [s.iterations for s in report.node_stats],
        "node_completed": [s.completed for s in report.node_stats],
        "router_counters": dict(sorted(report.router_counters.items())),
    }


def _generate(stream):
    begin = time.perf_counter()
    arrivals = list(stream.full())
    return arrivals, time.perf_counter() - begin


class FleetDecode:
    """Long decodes on a saturated homogeneous fleet, one process.

    16 SPR replicas serving LLaMA2-7B behind ShardRouter(16), run through
    ``run_sharded(workers=1)``: the million-request leg of the sharded
    benchmark, scaled down. Nearly all host time is node advance and the
    fused fast-forward (16 advance calls per arrival, from the fleet
    scan); op pricing is a fraction of a percent.
    """

    name = "fleet-decode"
    REQUESTS, QUICK_REQUESTS = 30_000, 2_000
    REPLICAS = 16
    RATE_PER_S = 3.75  # saturates the fleet

    def setup(self, seed, quick):
        from repro.cluster import (
            ClusterConfig,
            ReplicaSpec,
            ShardRouter,
            run_sharded,
        )
        from repro.hardware.registry import get_platform
        from repro.models.registry import get_model
        from repro.workloads.generator import WorkloadSpec
        from repro.workloads.streams import ShardableStream

        config = ClusterConfig([ReplicaSpec(
            get_platform("spr"), get_model("llama2-7b"),
            count=self.REPLICAS, max_batch=8)])
        spec = WorkloadSpec(self.name, input_len_range=(16, 64),
                            output_len_range=(256, 512), batch_size=1,
                            priority_metric="e2e_throughput")
        stream = ShardableStream(
            rate_per_s=self.RATE_PER_S, spec=spec, seed=seed,
            count=self.QUICK_REQUESTS if quick else self.REQUESTS)
        arrivals, generate_s = _generate(stream)
        return SimpleNamespace(
            arrivals=arrivals, generate_s=generate_s,
            call=lambda: run_sharded(config, ShardRouter(self.REPLICAS),
                                     arrivals, workers=1))

    def check(self, state, report, checks):
        return fleet_checks(state.arrivals, report, checks), {}


class FleetChurn:
    """Short prefill-heavy tenant traffic on a mixed fleet that fails.

    Six LLaMA2-7B replicas of four kinds (2x ICL BF16, 2x SPR int8-tp2,
    SPR hybrid:a100, SPR numa:snc_flat,aware), all with WSC admission
    behind least-outstanding-tokens routing. Replica 1 fails at 25% of
    the arrival span and replica 0 drains at 60%. The batch changes
    almost every iteration, so a node advance covers about 3.5
    iterations against fleet-decode's 8, and admission, routing and
    requeue run on every request. Four cost tables start cold.

    Prompts stay at most 224 tokens so that every decode-cost curve is
    filled once, to the table's first 256-step chunk, whatever the seed.
    Longer prompts make the curves grow by doubling from wherever the
    first request lands, which moved run time 10% from seed to seed.
    """

    name = "fleet-churn"
    REQUESTS, QUICK_REQUESTS = 40_000, 1_000
    RATE_PER_S = 4.0

    def setup(self, seed, quick):
        from repro.analysis.cost import list_price
        from repro.cluster import (
            ClusterConfig,
            ClusterSimulator,
            LeastOutstandingTokensRouter,
            NodeDrain,
            NodeFailure,
            ReplicaSpec,
        )
        from repro.engine.backend import parse_backend
        from repro.hardware.registry import get_platform
        from repro.models.registry import get_model
        from repro.workloads import TenantStream, TenantWorkloadSpec

        icl, spr = get_platform("icl"), get_platform("spr")
        model = get_model("llama2-7b")
        hybrid_price = list_price(spr.name) + list_price(
            get_platform("a100").name)
        config = ClusterConfig([
            ReplicaSpec(icl, model, count=2, scheduler="wsc"),
            ReplicaSpec(spr, model, count=2, scheduler="wsc",
                        backend=parse_backend("int8-tp2")),
            ReplicaSpec(spr, model, scheduler="wsc",
                        backend=parse_backend("hybrid:a100"),
                        price_usd=hybrid_price),
            ReplicaSpec(spr, model, scheduler="wsc",
                        backend=parse_backend("numa:snc_flat,aware")),
        ])
        spec = TenantWorkloadSpec(users=24, apps=3, zipf_s=1.2,
                                  input_len_range=(128, 224),
                                  output_len_range=(8, 32))
        stream = TenantStream(
            spec=spec, rate_per_s=self.RATE_PER_S, seed=seed,
            count=self.QUICK_REQUESTS if quick else self.REQUESTS)
        arrivals, generate_s = _generate(stream)
        fleet = config.build_fleet()
        first, last = arrivals[0].arrival_s, arrivals[-1].arrival_s
        events = [NodeFailure(first + 0.25 * (last - first), fleet[1].name),
                  NodeDrain(first + 0.60 * (last - first), fleet[0].name)]
        simulator = ClusterSimulator(fleet, LeastOutstandingTokensRouter(),
                                     events=events)
        return SimpleNamespace(arrivals=arrivals, generate_s=generate_s,
                               call=lambda: simulator.run(arrivals))

    def check(self, state, report, checks):
        return fleet_checks(state.arrivals, report, checks), {}


# -- whatif-plan ------------------------------------------------------------


class WhatifPlan:
    """The planner's question: cheapest fleet mix meeting a class SLO.

    ``recommend_fleet`` over every mix of four LLaMA2-13B node kinds (SPR,
    A100, SPR + A100 hybrid, SPR INT8) filling three slots, at two rates.
    Most host time is the fluid solver's tiered-flow fixed point; the
    rest is exact confirmation of the fluid favourites, the opposite
    balance from the fleet workloads.

    The rates are where the confirmation outcome does not depend on the
    seed: at 3/s the fluid favourite passes, at 7.5/s the only feasible
    mix fails (exact attainment 0.6-0.8 against a 0.9 bar). Between them
    the number of confirmations, and so the run time, varies with the
    seed.
    """

    name = "whatif-plan"
    SLOTS, QUICK_SLOTS = 3, 2
    CONFIRM, QUICK_CONFIRM = 1_000, 200
    RATES = (3.0, 7.5)
    MIX = (("simple", 0.5), ("standard", 0.35), ("reasoning", 0.15))

    def setup(self, seed, quick):
        from repro.analysis.cost import list_price
        from repro.cluster import ReplicaSpec
        from repro.engine.backend import HybridBackend, parse_backend
        from repro.hardware.registry import get_platform
        from repro.models.registry import get_model
        from repro.optim.advisor import fleet_mix_candidates, recommend_fleet

        spr, a100 = get_platform("spr"), get_platform("a100")
        model = get_model("llama2-13b")
        kinds = [
            ("spr", ReplicaSpec(spr, model)),
            ("a100", ReplicaSpec(a100, model)),
            ("hybrid", ReplicaSpec(
                spr, model, backend=HybridBackend(gpu=a100),
                price_usd=list_price(spr.name) + list_price(a100.name))),
            ("int8", ReplicaSpec(spr, model, backend=parse_backend("int8"))),
        ]
        candidates = fleet_mix_candidates(
            kinds, self.QUICK_SLOTS if quick else self.SLOTS)
        confirm = self.QUICK_CONFIRM if quick else self.CONFIRM

        def plan():
            return [recommend_fleet(candidates, rate_per_s=rate, mix=self.MIX,
                                    confirm_requests=confirm, seed=seed)
                    for rate in self.RATES]

        return SimpleNamespace(call=plan, candidates=len(candidates),
                               generate_s=0.0)

    def check(self, state, recommendations, checks):
        digest = {}
        errors = []
        for recommendation in recommendations:
            key = f"rate{recommendation.rate_per_s:g}"
            ranked = recommendation.ranked
            feasible = [a for a in ranked if a.feasible]
            confirmations = recommendation.confirmations
            checks.add(f"{key}.candidates", len(ranked) == state.candidates)
            checks.add(f"{key}.feasible_first_by_cost",
                       ranked[:len(feasible)] == feasible
                       and all(a.fluid.dollars_per_mtok
                               <= b.fluid.dollars_per_mtok
                               for a, b in zip(feasible, feasible[1:])))
            checks.add(f"{key}.confirms_in_rank_order",
                       [c.label for c in confirmations]
                       == [a.label for a in feasible[:len(confirmations)]])
            accepted = [c for c in confirmations if c.accepted]
            winner = recommendation.best
            if accepted:
                winner_ok = (winner.label == accepted[0].label
                             and recommendation.confirmation is accepted[0])
            else:
                winner_ok = (winner is None or winner is feasible[0])
            checks.add(f"{key}.winner_is_first_accepted", winner_ok)
            fluid = {a.label: a.fluid.attainment for a in ranked}
            errors.extend(abs(fluid[c.label] - c.attainment)
                          for c in confirmations)
            digest[key] = {
                "ranked": [a.label for a in ranked],
                "winner": winner.label if winner is not None else None,
                "confirmations": [
                    [c.label, c.attainment, c.goodput_tokens_per_s,
                     c.throughput_tokens_per_s, c.dollars_per_mtok,
                     c.accepted] for c in confirmations],
            }
        fluid_att_err = sum(errors) / len(errors) if errors else 0.0
        digest["fluid_att_err"] = fluid_att_err
        return digest, {"fluid_att_err": fluid_att_err}


WORKLOADS = {workload.name: workload for workload in (
    PaperRegen(), FleetDecode(), FleetChurn(), WhatifPlan())}
