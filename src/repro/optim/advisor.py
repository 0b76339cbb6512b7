"""Deployment advisor: the paper's findings packaged as a recommender.

Given a model and a workload shape, search the configuration space the
paper characterizes — platform, NUMA mode, core count, optional INT8
weight quantization, optional TP across sockets — and recommend the
configuration optimizing the workload's priority metric (TTFT for
chatbots, TPOT for translation, throughput for analytics; Section II-C).
"""

import dataclasses
import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.runner import run_inference
from repro.engine.backend import (
    BaselineBackend,
    NumaBackend,
    QuantizedBackend,
    TensorParallelBackend,
    TPConfig,
)
from repro.engine.inference import InferenceSimulator, MemoryCapacityError
from repro.engine.request import InferenceRequest
from repro.hardware.platform import Platform
from repro.hardware.registry import get_platform
from repro.models.config import ModelConfig
from repro.numa.modes import EVALUATED_CONFIGS
from repro.quant.weightonly import QuantConfig
from repro.utils.validation import require_in, require_positive

#: Metrics the advisor can optimize; latencies minimize, throughput maximizes.
PRIORITY_METRICS = ("ttft_s", "tpot_s", "e2e_s", "e2e_throughput")


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One evaluated configuration.

    Attributes:
        label: Human-readable configuration description.
        platform: Platform name.
        metric_value: Value of the optimized metric.
        summary: All six metrics.
    """

    label: str
    platform: str
    metric_value: float
    summary: dict


@dataclasses.dataclass(frozen=True)
class Recommendation:
    """Advisor output: the winner plus the ranked field."""

    priority_metric: str
    best: Candidate
    ranked: List[Candidate]


class DeploymentAdvisor:
    """Searches deployment configurations for one (model, request).

    Args:
        platforms: Platforms to consider (defaults to the paper's four).
        consider_quantization: Include weight-only INT8 candidates on CPUs.
        consider_tensor_parallel: Include TP=2 candidates on CPUs.
    """

    def __init__(self, platforms: Optional[List[Platform]] = None,
                 consider_quantization: bool = True,
                 consider_tensor_parallel: bool = True):
        if platforms is None:
            platforms = [get_platform(key)
                         for key in ("icl", "spr", "a100", "h100")]
        self.platforms = platforms
        self.consider_quantization = consider_quantization
        self.consider_tensor_parallel = consider_tensor_parallel

    def _candidates(self, model: ModelConfig,
                    request: InferenceRequest) -> List[Candidate]:
        candidates: List[Candidate] = []
        base = BaselineBackend(request.dtype)

        def add(label: str, platform_name: str, runner: Callable):
            try:
                result = runner()
            except MemoryCapacityError:
                return
            candidates.append(Candidate(
                label=label,
                platform=platform_name,
                metric_value=0.0,  # filled by caller per priority
                summary=result.summary(),
            ))

        for platform in self.platforms:
            if platform.is_gpu:
                add(f"{platform.name}", platform.name,
                    lambda p=platform: run_inference(p, model, request))
                continue
            # CPU: the paper's tuned config plus the snc/cache alternates.
            for numa in EVALUATED_CONFIGS:
                add(f"{platform.name} {numa.label}", platform.name,
                    lambda p=platform, n=numa: InferenceSimulator(
                        p, NumaBackend(numa=n, inner=base)
                    ).run(model, request))
            if self.consider_quantization:
                add(f"{platform.name} quad_flat+int8", platform.name,
                    lambda p=platform: InferenceSimulator(
                        p, backend=QuantizedBackend(
                            QuantConfig(), dtype=request.dtype)
                    ).run(model, request))
            if self.consider_tensor_parallel and \
                    platform.topology.sockets >= 2:
                add(f"{platform.name} quad_flat+tp2", platform.name,
                    lambda p=platform: InferenceSimulator(
                        p, backend=TensorParallelBackend(
                            TPConfig(degree=2), inner=base)
                    ).run(model, request))
        return candidates

    def recommend(self, model: ModelConfig,
                  request: InferenceRequest = InferenceRequest(),
                  priority_metric: str = "e2e_throughput") -> Recommendation:
        """Evaluate all candidates and rank by *priority_metric*."""
        require_in(priority_metric, PRIORITY_METRICS, "priority_metric")
        maximize = priority_metric == "e2e_throughput"
        scored = []
        for candidate in self._candidates(model, request):
            value = candidate.summary[priority_metric]
            scored.append(dataclasses.replace(candidate, metric_value=value))
        if not scored:
            raise RuntimeError(
                f"no feasible configuration for {model.name} at this shape")
        scored.sort(key=lambda c: c.metric_value, reverse=maximize)
        return Recommendation(priority_metric=priority_metric,
                              best=scored[0], ranked=scored)


# -- fleet-level provisioning search (fluid outer loop) --------------------

#: Fluid SLO attainment a candidate must reach to count as feasible.
ATTAINMENT_TARGET = 0.95
#: Feasible candidates :func:`recommend_fleet` replays through the exact
#: simulator, cheapest first, before giving up.
CONFIRM_ATTEMPTS = 3
#: Measured attainment may fall this far below the target and still
#: confirm a candidate.
CONFIRM_SLACK = 0.05


@dataclasses.dataclass(frozen=True)
class FleetAssessment:
    """One candidate fleet scored by the fluid solver."""

    label: str
    config: "ClusterConfig"
    fluid: "FluidReport"
    feasible: bool


@dataclasses.dataclass(frozen=True)
class FleetConfirmation:
    """Exact fast-forward confirmation of one candidate fleet."""

    label: str
    requests: int
    attainment: float
    goodput_tokens_per_s: float
    throughput_tokens_per_s: float
    dollars_per_mtok: float
    accepted: bool


@dataclasses.dataclass(frozen=True)
class FleetRecommendation:
    """Output of :func:`recommend_fleet`.

    ``best`` is the cheapest candidate that cleared the attainment
    target analytically and survived the exact simulator too
    (``confirmation`` holds its measured numbers). If no candidate
    survived, ``best`` is the fluid favorite and ``confirmation`` its
    rejected record (``accepted`` is False).
    ``ranked`` lists every candidate, feasible ones first by $/Mtok;
    ``confirmations`` records each simulation tried, in order, so a
    rejected fluid winner is visible, not silent.
    """

    rate_per_s: float
    best: Optional[FleetAssessment]
    confirmation: Optional[FleetConfirmation]
    ranked: List[FleetAssessment]
    confirmations: List[FleetConfirmation]


def measure_fleet(config, rate_per_s, mix=None, spec=None, slo=None,
                  count: int = 2000, seed: int = 0
                  ) -> Tuple[float, float, float, float]:
    """Simulate one fleet with fast-forward; the fluid solver's oracle.

    Returns ``(attainment, goodput_tokens_per_s, throughput_tokens_per_s,
    dollars_per_mtok)`` measured by the exact event-driven simulator on
    a *count*-request Poisson stream — the confirmation step of
    :func:`recommend_fleet` and of ``repro plan --confirm``.
    """
    from repro.cluster.router import JoinShortestQueueRouter
    from repro.cluster.simulator import ClusterSimulator
    from repro.cluster.tiering import TieredRouter
    from repro.serving.arrivals import iter_poisson_arrivals
    from repro.serving.slo import SLO
    from repro.workloads.classes import MixClassifier, iter_class_arrivals

    if mix is not None:
        classifier = MixClassifier(mix=tuple(mix))
        arrivals = list(iter_class_arrivals(rate_per_s, classifier,
                                            count=count, seed=seed))
        router = TieredRouter(classifier=classifier)
    else:
        classifier = None
        arrivals = list(iter_poisson_arrivals(rate_per_s, count=count,
                                              spec=spec, seed=seed))
        router = JoinShortestQueueRouter()
    simulator = ClusterSimulator(config.build_fleet(), router)
    report = simulator.run(iter(arrivals))
    if classifier is not None:
        tiering = report.tiering(arrivals, classifier)
        completed = sum(c.completed for c in tiering.classes)
        met = sum(c.met for c in tiering.classes)
        attainment = met / completed if completed else 1.0
        goodput = sum(c.goodput for c in tiering.classes)
    else:
        bar = slo if slo is not None else SLO()
        attainment = report.attainment(arrivals, bar)
        goodput = report.goodput(arrivals, bar)
    return (attainment, goodput, report.throughput,
            report.dollars_per_million_tokens())


def fleet_mix_candidates(node_kinds: Sequence[Tuple[str, "ReplicaSpec"]],
                         total_nodes: int
                         ) -> List[Tuple[str, "ClusterConfig"]]:
    """Enumerate every fleet *mix* filling a fixed node budget.

    The mix search space for :func:`recommend_fleet`: given the node
    kinds a deployment could buy — e.g. a CPU replica, a GPU replica,
    and a CPU+GPU hybrid replica — emit one candidate fleet per way of
    composing *total_nodes* slots from those kinds (stars and bars:
    ``C(total+k-1, k-1)`` candidates for *k* kinds). Labels read like
    ``"2xspr+1xa100+1xhybrid"`` so ranked output stays legible.

    Args:
        node_kinds: ``(kind_label, ReplicaSpec)`` pairs. Each spec is a
            one-replica template; its ``count`` is replaced per mix (a
            hybrid kind should carry ``price_usd`` covering *both*
            devices it occupies).
        total_nodes: Slots every candidate fleet must fill exactly.
    """
    from repro.cluster.config import ClusterConfig

    require_positive(total_nodes, "total_nodes")
    kinds = list(node_kinds)
    if not kinds:
        raise ValueError("fleet_mix_candidates needs at least one node kind")

    def compositions(total: int, bins: int):
        if bins == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, bins - 1):
                yield (first,) + rest

    candidates: List[Tuple[str, ClusterConfig]] = []
    for counts in compositions(total_nodes, len(kinds)):
        specs = [dataclasses.replace(spec, count=count)
                 for (_, spec), count in zip(kinds, counts) if count]
        label = "+".join(f"{count}x{kind}"
                         for (kind, _), count in zip(kinds, counts) if count)
        candidates.append((label, ClusterConfig(specs)))
    return candidates


def recommend_fleet(candidates: Sequence[Union[Tuple[str, "ClusterConfig"],
                                               "ClusterConfig"]],
                    rate_per_s: float, *,
                    mix=None, spec=None, slo=None,
                    confirm_requests: int = 2000,
                    seed: int = 0) -> FleetRecommendation:
    """Pick the cheapest fleet meeting an SLO target — fluid-first.

    The successive-refinement provisioning search: every candidate
    fleet is scored by the analytic fluid solver (once tables are
    warm, about 1.7 ms per tiered point whose fixed point converges
    and up to 18 ms per point that stops at the iteration cap),
    candidates clearing ``ATTAINMENT_TARGET`` are ranked by $/Mtok, and
    the winner is *confirmed* by the exact fast-forward simulator. If
    the simulator disagrees (measured attainment below target minus
    :data:`CONFIRM_SLACK`), the next-cheapest feasible candidate is
    confirmed instead, up to :data:`CONFIRM_ATTEMPTS` — the cheap outer
    loop never ships an unvalidated answer.

    Args:
        candidates: ``(label, ClusterConfig)`` pairs (bare configs get
            positional labels).
        rate_per_s: Offered fleet-wide arrival rate.
        mix / spec / slo: Workload description, as in
            :func:`repro.cluster.fluid.solve`.
    """
    from repro.cluster.fluid import FluidScenario, solve_grid

    labelled = []
    for position, candidate in enumerate(candidates):
        if isinstance(candidate, tuple):
            labelled.append(candidate)
        else:
            labelled.append((f"candidate-{position}", candidate))
    if not labelled:
        raise ValueError("recommend_fleet needs at least one candidate")

    reports = solve_grid(
        [FluidScenario(config=config, rate_per_s=rate_per_s, label=label)
         for label, config in labelled],
        mix=mix, spec=spec, slo=slo)
    assessments = [
        FleetAssessment(label=label, config=config, fluid=report,
                        feasible=(not report.overloaded
                                  and report.attainment
                                  >= ATTAINMENT_TARGET))
        for (label, config), report in zip(labelled, reports)]
    feasible = sorted([a for a in assessments if a.feasible],
                      key=lambda a: a.fluid.dollars_per_mtok)
    infeasible = sorted([a for a in assessments if not a.feasible],
                        key=lambda a: (-a.fluid.attainment,
                                       a.fluid.dollars_per_mtok))
    ranked = feasible + infeasible

    best = feasible[0] if feasible else None
    confirmation = None
    confirmations: List[FleetConfirmation] = []
    if feasible:
        for assessment in feasible[:CONFIRM_ATTEMPTS]:
            attainment, goodput, throughput, dollars = measure_fleet(
                assessment.config, rate_per_s, mix=mix, spec=spec, slo=slo,
                count=confirm_requests, seed=seed)
            accepted = attainment >= ATTAINMENT_TARGET - CONFIRM_SLACK
            record = FleetConfirmation(
                label=assessment.label, requests=confirm_requests,
                attainment=attainment, goodput_tokens_per_s=goodput,
                throughput_tokens_per_s=throughput,
                dollars_per_mtok=dollars, accepted=accepted)
            confirmations.append(record)
            if accepted:
                best, confirmation = assessment, record
                break
        else:
            # No candidate survived confirmation: surface the fluid
            # favorite (feasible[0], confirmed first) with its own
            # failed record so best+confirmation stay a matched pair.
            confirmation = confirmations[0] if confirmations else None
    return FleetRecommendation(
        rate_per_s=rate_per_s, best=best, confirmation=confirmation,
        ranked=ranked, confirmations=confirmations)


def size_fleet(replica: "ReplicaSpec", rate_per_s: float, *, slo=None,
               confirm_requests: int = 2000,
               seed: int = 0) -> FleetRecommendation:
    """How many copies of one replica serve *rate_per_s* under *slo*?

    The fluid capacity edge of a single replica gives the smallest
    fleet that is not overloaded, k = ceil(rate / saturation_rate);
    fleets of k .. k+3 replicas then go through :func:`recommend_fleet`,
    which ranks them and exact-confirms the winner. A replica that does
    not fit its device's memory raises
    :class:`~repro.engine.inference.MemoryCapacityError` (the serving
    model covers in-memory execution only), so the caller can mark the
    platform infeasible instead of extrapolating.
    """
    from repro.cluster.config import ClusterConfig
    from repro.cluster.fluid import saturation_rate

    require_positive(rate_per_s, "rate_per_s")
    one = dataclasses.replace(replica, count=1)
    smallest = math.ceil(rate_per_s / saturation_rate(
        ClusterConfig((one,)), slo=slo))
    candidates = [
        (f"{k}x {replica.platform.name}",
         ClusterConfig((dataclasses.replace(replica, count=k),)))
        for k in range(smallest, smallest + 4)]
    return recommend_fleet(candidates, rate_per_s, slo=slo,
                           confirm_requests=confirm_requests, seed=seed)
