"""Command-line interface.

Usage::

    python -m repro run --platform spr --model opt-13b --batch 8
    python -m repro sweep --platforms icl,spr --models opt-13b,opt-66b
    python -m repro experiment fig8
    python -m repro experiment --all
    python -m repro cluster --platforms spr,spr,h100 --model llama2-7b
    python -m repro cluster --platforms spr,spr --model llama2-7b --trace out.json
    python -m repro cluster --platforms spr,spr --model llama2-7b --rate 4 --duration 3600
    python -m repro plan --platforms spr,spr --model llama2-7b --rates 1,3,6
    python -m repro trace --out trace.json
    python -m repro roofline --platform spr --model llama2-13b
    python -m repro platforms
    python -m repro models
"""

import argparse
import functools
import math
import pathlib
import sys
from typing import List, Optional

from repro.analysis.roofline_chart import roofline_for_run
from repro.core.runner import CharacterizationSweep, is_offloaded, run_inference
from repro.engine.backend import NumaBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.experiments import all_experiment_ids, run_experiment
from repro.hardware.registry import all_platforms, get_platform
from repro.models.registry import all_models, get_model
from repro.numa.modes import get_config
from repro.utils.formatting import format_table
from repro.utils.units import bytes_to_gb


def _reports_bad_input(command):
    """Report a command's bad input as ``error: ...``, exit 2.

    Unknown platform/model/class/experiment keys (``KeyError``),
    inconsistent flags (``ValueError``) and replicas that do not fit
    device memory (``MemoryCapacityError``) are the user's input, not a
    crash.
    """
    from repro.engine.inference import MemoryCapacityError

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        try:
            return command(args)
        except (KeyError, ValueError, MemoryCapacityError) as error:
            # str() of a KeyError is its message quoted.
            message = error.args[0] if isinstance(error, KeyError) else error
            print(f"error: {message}", file=sys.stderr)
            return 2

    return run


def _numa_backend(args: argparse.Namespace) -> Optional[NumaBackend]:
    """``--numa`` as a placement backend; ``None`` prices quad_flat."""
    return NumaBackend(numa=get_config(args.numa)) if args.numa else None


@_reports_bad_input
def _cmd_run(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)
    model = get_model(args.model)
    request = InferenceRequest(batch_size=args.batch, input_len=args.input,
                               output_len=args.output)
    result = run_inference(platform, model, request, _numa_backend(args),
                           cores=args.cores)
    mode = "offload" if is_offloaded(result) else "in-memory"
    print(format_table(
        ["metric", "value"],
        [["platform", platform.name],
         ["model", model.name],
         ["mode", mode],
         ["TTFT ms", result.ttft_s * 1000],
         ["TPOT ms", result.tpot_s * 1000],
         ["E2E s", result.e2e_s],
         ["tokens/s", result.e2e_throughput],
         ["prefill tokens/s", result.prefill_throughput],
         ["decode tokens/s", result.decode_throughput]],
        title=f"{model.name} on {platform.name} "
              f"(batch={args.batch}, {args.input}/{args.output})"))
    return 0


@_reports_bad_input
def _cmd_sweep(args: argparse.Namespace) -> int:
    platforms = [get_platform(key) for key in args.platforms.split(",")]
    models = [get_model(key) for key in args.models.split(",")]
    batches = [int(b) for b in args.batches.split(",")]
    sweep = CharacterizationSweep(platforms, models, batches,
                                  input_len=args.input,
                                  output_len=args.output,
                                  backend=_numa_backend(args),
                                  cores=args.cores)
    rows = []
    for row in sweep.run():
        rows.append([row.model, row.platform, row.batch_size,
                     "off" if row.offloaded else "mem",
                     row.metrics["e2e_s"], row.metrics["e2e_throughput"]])
    print(format_table(
        ["model", "platform", "batch", "mode", "E2E s", "tokens/s"], rows,
        title="characterization sweep"))
    return 0


@_reports_bad_input
def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = all_experiment_ids() if args.all else [args.experiment_id]
    if not args.all and args.experiment_id is None:
        print("specify an experiment id or --all; known ids:\n  "
              + " ".join(all_experiment_ids()), file=sys.stderr)
        return 2
    for experiment_id in ids:
        print(run_experiment(experiment_id).render())
        print()
    return 0


@_reports_bad_input
def _cmd_roofline(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)
    model = get_model(args.model)
    request = InferenceRequest(batch_size=args.batch, input_len=args.input,
                               output_len=args.output)
    result = InferenceSimulator(platform, _numa_backend(args),
                                cores=args.cores).run(model, request)
    print(roofline_for_run(platform, result.prefill, result.decode))
    return 0


def _ms(seconds: float) -> str:
    """Seconds as a whole-millisecond column; unbounded waits print inf."""
    return "inf" if math.isinf(seconds) else f"{seconds * 1000:.0f}"


def _build_models(args: argparse.Namespace, replicas: int) -> list:
    """Per-replica models from ``--models`` / ``--model``.

    ``--models`` mirrors ``--backend``: one key broadcasts to every
    replica, otherwise the comma-separated list must match
    ``--platforms`` one-for-one — validated here with a clear error
    instead of a downstream IndexError.
    """
    spec = getattr(args, "models", None) or getattr(args, "model", None)
    if not spec:
        raise ValueError("pass --model KEY or --models KEY[,KEY...]")
    keys = spec.split(",")
    if len(keys) == 1:
        keys = keys * replicas
    if len(keys) != replicas:
        raise ValueError(
            f"--models lists {len(keys)} models but --platforms lists "
            f"{replicas} replicas (give one model, or one per replica)")
    return [get_model(key) for key in keys]


def _build_backends(args: argparse.Namespace, replicas: int) -> list:
    """Per-replica execution backends from ``--backend`` (or all-None).

    One spec broadcasts to every replica; otherwise the comma-separated
    list must match ``--platforms`` one-for-one. NUMA placement options
    (``numa:snc_flat,aware,hot=0.8``) also use commas, so fragments
    that are options rather than spec starts reattach to the spec
    before them — ``numa:snc_flat,aware,hybrid:a100`` is two replicas.
    """
    spec = getattr(args, "backend", None)
    if not spec:
        return [None] * replicas
    from repro.engine.backend import parse_backend

    specs: list = []
    for item in spec.split(","):
        if specs and (item == "aware" or item.startswith("hot=")):
            specs[-1] += "," + item
        else:
            specs.append(item)
    if len(specs) == 1:
        specs = specs * replicas
    if len(specs) != replicas:
        raise ValueError(
            f"--backend lists {len(specs)} specs but --platforms lists "
            f"{replicas} replicas (give one spec, or one per replica)")
    return [parse_backend(item) for item in specs]


def _fleet(args: argparse.Namespace):
    """The ``--platforms`` fleet as a :class:`~repro.cluster.ClusterConfig`.

    One :class:`~repro.cluster.ReplicaSpec` per listed platform, so
    every path names and builds replicas the same way: the single
    process calls ``build_fleet``, sharded workers rebuild their groups
    from the pickled specs, and the fluid solver groups the specs into
    tier stations without stepping a scheduler.
    """
    from repro.cluster import ClusterConfig, ReplicaSpec

    keys = args.platforms.split(",")
    models = _build_models(args, len(keys))
    backends = _build_backends(args, len(keys))
    return ClusterConfig([
        ReplicaSpec(get_platform(key), model, backend=backend,
                    max_batch=args.batch,
                    scheduler=getattr(args, "scheduler", None))
        for key, model, backend in zip(keys, models, backends)])


def _fleet_title(config) -> str:
    """The served models, joined for a report title."""
    return " + ".join(sorted({spec.model.name for spec in config.replicas}))


def _request_count(args: argparse.Namespace) -> Optional[int]:
    """``--requests``; 32 when neither it nor ``--duration`` is given."""
    if args.requests is None and getattr(args, "duration", None) is None:
        return 32
    return args.requests


def _class_mix(args: argparse.Namespace):
    """The request-class mix, or ``None`` for a class-less workload.

    ``--class-mix simple:0.5,reasoning:0.5`` weights the classes;
    ``--classes simple,reasoning`` mixes them equally. ``--router
    tiered`` without either uses the stock mix — the tiered router
    needs a classified workload to route. The class stream and the
    fluid solves both read the mix from here.
    """
    from repro.workloads import DEFAULT_CLASS_MIX, parse_class_mix

    mix_text = getattr(args, "class_mix", None)
    classes_text = getattr(args, "classes", None)
    if mix_text and classes_text:
        raise ValueError("pass --classes or --class-mix, not both")
    text = mix_text or classes_text
    if text is not None:
        return parse_class_mix(text)
    if getattr(args, "router", None) == "tiered":
        return DEFAULT_CLASS_MIX
    return None


def _throttle_config(args: argparse.Namespace):
    """The ``--throttle`` door, or ``None`` when the door is open."""
    limit = getattr(args, "throttle", None)
    if limit is None:
        return None
    from repro.workloads import ThrottleConfig

    return ThrottleConfig(window_s=args.throttle_window,
                          max_user_requests=limit,
                          policy=args.throttle_policy)


def _workload(args: argparse.Namespace):
    """The ``cluster``/``trace`` workload as one replayable stream.

    A :class:`~repro.workloads.ClassMixStream` under a class mix, a
    :class:`~repro.workloads.TenantStream` under ``--tenants``, and a
    Poisson (or ``--burst-rate`` bursty)
    :class:`~repro.workloads.ShardableStream` otherwise. Every
    ``.full()`` regenerates the identical stream — the simulation
    consumes one copy and scoring another, so ``--duration`` runs of
    any length stay O(1) in workload memory — and sharded workers
    regenerate only their own ``.shard()`` slice.
    """
    from repro.workloads import (
        ClassMixStream,
        ShardableStream,
        TenantStream,
        TenantWorkloadSpec,
    )

    mix = _class_mix(args)
    tenants = getattr(args, "tenants", None)
    if mix is not None and tenants is not None:
        raise ValueError("--classes/--class-mix and --tenants are separate "
                         "workloads; pick one")
    if tenants is None and getattr(args, "throttle", None) is not None:
        raise ValueError("--throttle needs --tenants (the door "
                         "windows are per-user/per-app)")
    count = _request_count(args)
    duration = getattr(args, "duration", None)
    if mix is not None:
        return ClassMixStream(rate_per_s=args.rate, count=count,
                              duration_s=duration, mix=mix, seed=args.seed)
    if tenants is not None:
        return TenantStream(
            spec=TenantWorkloadSpec(users=tenants, apps=args.apps),
            rate_per_s=args.rate, count=count, duration_s=duration,
            seed=args.seed, throttle=_throttle_config(args))
    return ShardableStream(rate_per_s=args.rate, count=count,
                           duration_s=duration,
                           burst_rate_per_s=args.burst_rate or None,
                           seed=args.seed)


def _warn_if_capped(report, where: str = "") -> None:
    """Say on stderr when the tiered fixed point stopped at its cap."""
    if not report.converged:
        print(f"\nwarning: tier-flow fixed point did not converge in "
              f"{report.iterations} iterations{where}; treat shares as "
              f"approximate", file=sys.stderr)


def _print_fluid_report(report, title: str) -> None:
    """Render one :class:`~repro.cluster.fluid.FluidReport`."""
    station_rows = [
        [s.label, s.replicas, f"{s.rate_per_s:.2f}",
         "inf" if math.isinf(s.rho) else f"{s.rho:.2f}", s.regime,
         f"{s.utilization:.0%}", f"{s.mean_batch:.1f}",
         f"{s.p_wait:.0%}", _ms(s.mean_wait_s), _ms(s.tpot_s),
         f"{s.throughput_tokens_per_s:.1f}"]
        for s in report.stations]
    print(format_table(
        ["tier", "replicas", "req/s", "rho", "regime", "util",
         "mean batch", "p(wait)", "wait ms", "TPOT ms", "tok/s"],
        station_rows, title=title))
    percentile_text = "   ".join(
        f"p{int(q * 100)} TTFT: {_ms(t)} ms"
        for q, t in sorted(report.ttft_percentiles.items()))
    print(f"\nregime: {report.regime}   "
          f"capacity: {report.capacity_req_per_s:.2f} req/s   "
          f"offered: {report.rate_per_s:.2f} req/s "
          f"(rho {report.max_rho:.2f})")
    print(f"throughput: {report.throughput_tokens_per_s:.1f} tok/s   "
          f"goodput: {report.goodput_tokens_per_s:.1f} tok/s   "
          f"attainment: {report.attainment:.0%}   "
          f"$/Mtok: {report.dollars_per_mtok:.2f}")
    print(f"mean TTFT: {_ms(report.mean_ttft_s)} ms   {percentile_text}   "
          f"TPOT: {_ms(report.tpot_s)} ms")
    if len(report.classes) > 1 or (report.classes
                                   and report.classes[0].name != "all"):
        class_rows = [
            [c.name, f"{c.share:.0%}", f"{c.rate_per_s:.2f}",
             f"{c.attainment:.0%}", f"{c.goodput_tokens_per_s:.1f}",
             _ms(c.mean_ttft_s), _ms(c.tpot_s),
             f"{c.spill_rate_per_s:.2f}"]
            for c in report.classes]
        print()
        print(format_table(
            ["class", "share", "req/s", "attainment", "goodput",
             "mean TTFT ms", "TPOT ms", "spill req/s"],
            class_rows, title="per-class (each scored on its own SLO)"))
    _warn_if_capped(report)
    if report.overloaded:
        print("\nwarning: fleet is overloaded at this rate — queues grow "
              "without bound; waits are reported as inf, not "
              "extrapolated", file=sys.stderr)


def _router_factory(args: argparse.Namespace, slo, classifier=None):
    """Zero-arg factory for the ``--router`` policy.

    A factory rather than an instance so the sharded path can build one
    independent policy per replica group (``ShardRouter`` wraps the
    chosen policy as its per-group local). ``tiered`` needs the
    workload's *classifier* — the deterministic request→class hook the
    class-mix stream generated shapes with.
    """
    from repro.cluster import (
        JoinShortestQueueRouter,
        LeastOutstandingTokensRouter,
        PhaseAwareRouter,
        RoundRobinRouter,
        TieredRouter,
    )

    if args.router == "tiered" and classifier is None:
        raise ValueError("--router tiered needs a classified workload "
                         "(--classes / --class-mix)")
    return {
        "round_robin": lambda: RoundRobinRouter(),
        "jsq": lambda: JoinShortestQueueRouter(),
        "least_tokens": lambda: LeastOutstandingTokensRouter(),
        "phase_aware": lambda: PhaseAwareRouter(slo=slo),
        "tiered": lambda: TieredRouter(classifier),
    }[args.router]


def _progress_line(start_wall: float):
    """A ClusterSimulator progress callback writing one stderr line."""
    import time

    def progress(events: int, sim_s: float, completed: int) -> None:
        wall = max(time.perf_counter() - start_wall, 1e-9)
        print(f"\r{events:,} events  {events / wall:,.0f} ev/s  "
              f"sim {sim_s:,.1f}s ({sim_s / wall:,.0f}x real time)  "
              f"{completed:,} completed", end="", file=sys.stderr,
              flush=True)

    return progress


def _trace_destination(path: str) -> Optional[pathlib.Path]:
    """Resolve a trace output path, or None (with a message) if unusable."""
    destination = pathlib.Path(path)
    if not destination.parent.exists():
        print(f"error: cannot write trace to {destination}: directory "
              f"{destination.parent} does not exist (create it first, "
              f"e.g. mkdir -p {destination.parent})", file=sys.stderr)
        return None
    return destination


def _cmd_cluster_fluid(args: argparse.Namespace) -> int:
    """The ``--solver fluid`` cluster path: analytic steady state.

    Same fleet and workload flags as the simulation path, answered by
    the mean-field solver in milliseconds instead of event stepping.
    Event-path-only features (traces, tenants, bursts, exact pricing)
    are rejected up front — the fluid model has no notion of them.
    """
    from repro.cluster import fluid
    from repro.serving.slo import SLO

    for flag, reason in (
            (args.trace, "--trace records event timelines"),
            (getattr(args, "tenants", None),
             "--tenants is a per-user transient workload"),
            (args.burst_rate, "--burst-rate is a transient; the fluid "
                              "model solves Poisson steady state"),
            (args.exact, "--exact prices scheduler iterations"),
            (args.workers > 1 or None, "--workers parallelizes event "
                                       "simulation"),
            (args.shards, "--shards groups replicas for event "
                          "simulation")):
        if flag:
            print(f"error: --solver fluid is analytic; {reason} "
                  f"(drop the flag or use --solver simulate)",
                  file=sys.stderr)
            return 2
    config = _fleet(args)
    report = fluid.solve(config, args.rate, mix=_class_mix(args),
                         slo=SLO(ttft_s=args.ttft, tpot_s=args.tpot),
                         router="tiered" if args.router == "tiered"
                         else "uniform")
    _print_fluid_report(
        report,
        title=f"{_fleet_title(config)} x "
              f"{sum(s.replicas for s in report.stations)} replicas, "
              f"fluid steady state at {args.rate:g} req/s")
    return 0


@_reports_bad_input
def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterSimulator, ShardRouter, run_sharded
    from repro.serving.slo import SLO
    from repro.trace import NOOP_TRACER, RecordingTracer, write_chrome_trace
    from repro.workloads import ClassMixStream, TenantStream

    if args.solver == "fluid":
        return _cmd_cluster_fluid(args)
    sharded = args.workers > 1 or args.shards is not None
    tracer = NOOP_TRACER
    destination = None
    if args.trace:
        if sharded:
            # Worker processes cannot share one recording tracer.
            print("error: --trace requires the single-process path "
                  "(drop --workers/--shards)", file=sys.stderr)
            return 2
        # Fail before the simulation runs, not after minutes of work.
        destination = _trace_destination(args.trace)
        if destination is None:
            return 2
        tracer = RecordingTracer()
    slo = SLO(ttft_s=args.ttft, tpot_s=args.tpot)
    progress = None
    if args.progress or sys.stderr.isatty():
        import time

        progress = _progress_line(time.perf_counter())
    config = _fleet(args)
    stream = _workload(args)
    classifier = (stream.classifier()
                  if isinstance(stream, ClassMixStream) else None)
    make_router = _router_factory(args, slo, classifier)
    if sharded:
        shards = args.shards if args.shards is not None else args.workers
        report = run_sharded(config, ShardRouter(shards, local=make_router),
                             stream, workers=args.workers, exact=args.exact,
                             progress=progress)
    else:
        report = ClusterSimulator(config.build_fleet(), make_router(),
                                  tracer=tracer, exact=args.exact).run(
            stream.full(), progress=progress)
    if progress is not None:
        print(file=sys.stderr)
    rows = [[s.name, s.platform, s.model, s.completed, s.utilization,
             s.peak_queue] for s in report.node_stats]
    print(format_table(
        ["replica", "platform", "model", "completed", "utilization",
         "peak queue"],
        rows,
        title=f"{_fleet_title(config)} x {len(report.node_stats)} "
              f"replicas, router={report.router}, "
              f"{len(report.completed)} requests"))
    # Scoring regenerates the deterministic stream instead of holding it.
    print(f"\nthroughput: {report.throughput:.1f} tok/s   "
          f"mean TTFT: {report.mean_ttft_s * 1000:.0f} ms   "
          f"attainment: {report.attainment(stream.full(), slo):.0%}   "
          f"goodput: {report.goodput(stream.full(), slo):.1f} tok/s   "
          f"$/Mtok: {report.dollars_per_million_tokens():.2f}")
    if classifier is not None:
        tiering = report.tiering(stream.full(), classifier)
        class_rows = [
            [c.name, c.completed, f"{c.attainment:.0%}",
             f"{c.goodput:.1f}", f"{c.mean_ttft_s * 1000:.0f}",
             c.spills, c.fallbacks]
            for c in tiering.classes]
        print()
        print(format_table(
            ["class", "completed", "attainment", "goodput",
             "mean TTFT ms", "spills", "fallbacks"],
            class_rows, title="per-class (each scored on its own SLO)"))
        tier_rows = [
            [t.label, t.replicas, t.generated_tokens,
             f"{t.utilization:.0%}",
             "-" if t.generated_tokens == 0
             else f"{t.dollars_per_mtok:.2f}"]
            for t in tiering.tiers]
        print()
        print(format_table(
            ["tier", "replicas", "tokens", "utilization", "$/Mtok"],
            tier_rows, title="per-tier"))
        print(f"\nclass-SLO attainment: {tiering.attainment:.0%}   "
              f"class goodput: {tiering.goodput:.1f} tok/s   "
              f"spills: {tiering.spills}   "
              f"fallbacks: {tiering.fallbacks}")
    if isinstance(stream, TenantStream):
        fairness = report.fairness(stream.decisions(), slo=slo)
        tenant_rows = [
            [t.user_id, t.arrived, t.admitted, t.throttled, t.completed,
             f"{t.attainment:.0%}",
             "-" if t.mean_ttft_s is None else f"{t.mean_ttft_s * 1000:.0f}",
             t.wasted_tokens]
            for t in fairness.tenants]
        print()
        print(format_table(
            ["tenant", "arrived", "admitted", "throttled", "completed",
             "attainment", "mean TTFT ms", "wasted tok"],
            tenant_rows,
            title=f"{len(fairness.tenants)} tenants, "
                  f"scheduler={report.node_stats[0].scheduler}"))
        print(f"\njain index: {fairness.jain_index:.3f}   "
              f"throttle rate: {fairness.throttle_rate:.0%}   "
              f"wasted tokens: {fairness.wasted_tokens}")
    if destination is not None:
        write_chrome_trace(tracer.trace, destination)
        print(f"trace: {len(tracer.trace.spans)} spans -> {destination} "
              "(load in Perfetto / chrome://tracing)")
    return 0


@_reports_bad_input
def _cmd_plan(args: argparse.Namespace) -> int:
    """``repro plan``: instant what-if sweeps over arrival rates.

    Solves the fleet's analytic steady state at every requested rate
    (one shared cost-table warmup; after it, about 0.4 ms per class-less
    point and 1.7-18 ms per tiered one, depending on whether its fixed
    point converges) and prints the operating curve: regime,
    throughput, goodput, attainment, latency percentiles, $/Mtok. A
    rate whose tiered fixed point stops at the iteration cap gets a
    warning on stderr. ``--confirm N`` replays chosen points through
    the exact simulator — the successive refinement loop from the
    provisioning advisor, on demand.
    """
    from repro.cluster import fluid
    from repro.serving.slo import SLO

    slo = SLO(ttft_s=args.ttft, tpot_s=args.tpot)
    rates = sorted({float(r) for r in args.rates.split(",")})
    if any(rate <= 0 for rate in rates):
        raise ValueError("--rates must be positive")
    if args.confirm is not None and args.confirm <= 0:
        raise ValueError(f"--confirm must be positive, got {args.confirm}")
    config = _fleet(args)
    mix = _class_mix(args)
    router = "tiered" if mix is not None else "uniform"
    reports = fluid.solve_grid(
        [fluid.FluidScenario(config=config, rate_per_s=rate,
                             label=f"{rate:g} req/s")
         for rate in rates],
        mix=mix, slo=slo, router=router)
    capacity = fluid.saturation_rate(config, mix=mix, slo=slo,
                                     router=router)
    headers = ["req/s", "rho", "regime", "tok/s", "goodput",
               "attainment", "TTFT ms", "p99 ms", "TPOT ms", "$/Mtok"]
    rows = [
        [f"{report.rate_per_s:g}", f"{report.max_rho:.2f}", report.regime,
         f"{report.throughput_tokens_per_s:.1f}",
         f"{report.goodput_tokens_per_s:.1f}", f"{report.attainment:.0%}",
         _ms(report.mean_ttft_s),
         _ms(report.ttft_percentiles.get(0.99, math.inf)),
         _ms(report.tpot_s), f"{report.dollars_per_mtok:.2f}"]
        for report in reports]
    if args.confirm is not None:
        from repro.optim.advisor import measure_fleet

        headers += ["sim attainment", "sim tok/s", "sim $/Mtok"]
        for row, report in zip(rows, reports):
            attainment, _goodput, throughput, dollars = measure_fleet(
                config, report.rate_per_s, mix=mix, slo=slo,
                count=args.confirm, seed=args.seed)
            row += [f"{attainment:.0%}", f"{throughput:.1f}",
                    f"{dollars:.2f}"]
    print(format_table(
        headers, rows,
        title=f"{_fleet_title(config)} x {config.size} replicas, "
              f"fluid operating curve"))
    for report in reports:
        _warn_if_capped(report, f" at {report.rate_per_s:g} req/s")
    if math.isinf(capacity):
        print("\nsaturation: not found within the searched rate range")
    else:
        print(f"\nsaturation: {capacity:.2f} req/s "
              f"(fleet capacity at this workload shape)")
    if args.confirm is not None:
        print(f"sim columns: exact fast-forward, {args.confirm} requests "
              f"per point, seed {args.seed}")
    return 0


@_reports_bad_input
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterSimulator, NodeFailure
    from repro.serving.slo import SLO
    from repro.trace import (
        RecordingTracer,
        ascii_timeline,
        batch_occupancy_histogram,
        request_attribution,
        write_chrome_trace,
    )

    destination = None
    if args.out:
        destination = _trace_destination(args.out)
        if destination is None:
            return 2
    config = _fleet(args)
    stream = _workload(args)
    slo = SLO(ttft_s=args.ttft, tpot_s=args.tpot)
    events = []
    if args.fail_node:
        events.append(NodeFailure(time_s=args.fail_at, node=args.fail_node))
    tracer = RecordingTracer()
    report = ClusterSimulator(config.build_fleet(),
                              _router_factory(args, slo)(),
                              events=events, tracer=tracer).run(stream.full())
    trace = tracer.trace

    print(ascii_timeline(trace, width=args.width))
    attribution = request_attribution(trace)
    rows = [[a.request_id, a.queue_s, a.prefill_s, a.decode_s,
             a.finalize_s + a.lost_s, a.wasted_s, a.total_s]
            for a in attribution.values()]
    print()
    print(format_table(
        ["request", "queue s", "prefill s", "decode s", "other s",
         "wasted s", "e2e s"], rows,
        title="per-request time attribution"))
    occupancy = batch_occupancy_histogram(trace)
    busy = sum(occupancy.values())
    print()
    print(format_table(
        ["batch size", "decode s", "share"],
        [[size, seconds, seconds / busy]
         for size, seconds in occupancy.items()],
        title="batch-occupancy histogram (decode time at each size)"))
    print(f"\n{len(trace.spans)} spans, {len(trace.instants)} instants, "
          f"{len(trace.counters)} counter samples over "
          f"{report.makespan_s:.2f}s; mean TTFT "
          f"{report.mean_ttft_s * 1000:.0f} ms")
    if destination is not None:
        write_chrome_trace(trace, destination)
        print(f"trace: {destination} (load in Perfetto / chrome://tracing)")
    return 0


@_reports_bad_input
def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.optim.advisor import DeploymentAdvisor

    model = get_model(args.model)
    request = InferenceRequest(batch_size=args.batch, input_len=args.input,
                               output_len=args.output)
    recommendation = DeploymentAdvisor().recommend(model, request,
                                                   args.metric)
    rows = [[c.label, c.metric_value] for c in recommendation.ranked[:8]]
    print(format_table(
        ["configuration", args.metric], rows,
        title=f"advisor: {model.name}, batch={args.batch}, "
              f"optimize {args.metric}"))
    print(f"\nrecommended: {recommendation.best.label}")
    return 0


def _cmd_calibration(_args: argparse.Namespace) -> int:
    from repro.calibration.targets import check_all_targets

    rows = []
    for result in check_all_targets():
        rows.append([result.target.target_id, result.target.paper_value,
                     result.measured,
                     "OK" if result.in_band else "OUT"])
    print(format_table(["target", "paper", "measured", "verdict"], rows,
                       title="calibration targets (DESIGN.md section 5)"))
    failures = sum(1 for row in rows if row[3] == "OUT")
    return 1 if failures else 0


def _cmd_platforms(_args: argparse.Namespace) -> int:
    rows = []
    for key, platform in all_platforms().items():
        rows.append([
            key, platform.name, platform.kind.value,
            f"{bytes_to_gb(platform.memory_capacity):.0f}GB",
            f"{bytes_to_gb(platform.peak_memory_bandwidth):.0f}GB/s",
        ])
    print(format_table(["key", "name", "kind", "memory", "peak BW"], rows))
    return 0


def _cmd_models(_args: argparse.Namespace) -> int:
    rows = []
    for key, model in sorted(all_models().items(),
                             key=lambda kv: kv[1].param_count()):
        rows.append([
            key, model.name, model.n_layers, model.d_model,
            f"{model.param_count() / 1e9:.1f}B",
            "GQA" if model.uses_gqa else "MHA",
        ])
    print(format_table(
        ["key", "name", "layers", "d_model", "params", "attention"], rows))
    return 0


def _add_request_args(parser: argparse.ArgumentParser,
                      placement: bool = True) -> None:
    """The request-shape flags, plus ``--cores``/``--numa`` if *placement*."""
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--input", type=int, default=128)
    parser.add_argument("--output", type=int, default=32)
    if placement:
        parser.add_argument("--cores", type=int, default=None,
                            help="CPU cores (default: one socket)")
        parser.add_argument("--numa", default=None,
                            help="CPU NUMA config label (default: "
                                 "quad_flat)")


def _add_fleet_args(parser: argparse.ArgumentParser) -> None:
    """The fleet, class-mix and SLO flags ``cluster`` and ``plan`` share."""
    parser.add_argument("--platforms", required=True,
                        help="comma-separated replica platforms (one "
                             "replica each, e.g. spr,spr,h100)")
    parser.add_argument("--model", default=None,
                        help="model served by every replica")
    parser.add_argument("--models", default=None,
                        help="per-replica models: one key broadcasts, or "
                             "a comma-separated list matching --platforms "
                             "(e.g. llama2-7b,llama2-7b,llama2-13b)")
    parser.add_argument("--classes", default=None,
                        help="equal-share request-class mix (e.g. "
                             "simple,standard,reasoning)")
    parser.add_argument("--class-mix", default=None,
                        help="weighted request-class mix (e.g. "
                             "simple:0.5,standard:0.35,reasoning:0.15)")
    parser.add_argument("--batch", type=int, default=8,
                        help="per-replica max batch")
    parser.add_argument("--backend", default=None,
                        help="execution backend spec(s): one of "
                             "bf16/fp16/fp32/int8/int4/w8a8, optionally "
                             "combined with numa:CONFIG[,aware][,hot=F] "
                             "(hot/cold HBM-DDR placement), hybrid:GPU "
                             "(GPU prefill + CPU decode, e.g. hybrid:a100), "
                             "and a tpN suffix (e.g. int8-tp2, "
                             "int8-numa:snc_flat,aware-tp2). One value "
                             "applies to every replica; a comma-separated "
                             "list assigns per replica and must match "
                             "--platforms")
    parser.add_argument("--ttft", type=float, default=2.0,
                        help="SLO: seconds to first token")
    parser.add_argument("--tpot", type=float, default=0.2,
                        help="SLO: seconds per output token")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival-stream seed (plan: of the --confirm "
                             "simulations)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulate LLM inference on CPUs/GPUs (IISWC 2024 repro)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate one request")
    run_parser.add_argument("--platform", required=True)
    run_parser.add_argument("--model", required=True)
    _add_request_args(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="model x platform x batch grid")
    sweep_parser.add_argument("--platforms", required=True,
                              help="comma-separated platform keys")
    sweep_parser.add_argument("--models", required=True,
                              help="comma-separated model keys")
    sweep_parser.add_argument("--batches", default="1,8,32")
    _add_request_args(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    experiment_parser = sub.add_parser("experiment",
                                       help="regenerate a paper figure/table")
    experiment_parser.add_argument("experiment_id", nargs="?")
    experiment_parser.add_argument("--all", action="store_true")
    experiment_parser.set_defaults(func=_cmd_experiment)

    roofline_parser = sub.add_parser("roofline",
                                     help="ASCII roofline with run phases")
    roofline_parser.add_argument("--platform", required=True)
    roofline_parser.add_argument("--model", required=True)
    _add_request_args(roofline_parser)
    roofline_parser.set_defaults(func=_cmd_roofline)

    cluster_parser = sub.add_parser(
        "cluster", help="simulate a multi-replica serving fleet")
    _add_fleet_args(cluster_parser)
    cluster_parser.add_argument("--router", default="phase_aware",
                                choices=["round_robin", "jsq",
                                         "least_tokens", "phase_aware",
                                         "tiered"])
    cluster_parser.add_argument("--rate", type=float, default=1.0,
                                help="arrival rate, requests/s")
    cluster_parser.add_argument("--burst-rate", type=float, default=None,
                                help="burst arrival rate (enables a "
                                     "bursty on/off trace)")
    cluster_parser.add_argument("--requests", type=int, default=None,
                                help="number of requests (default 32; "
                                     "unbounded when --duration is set)")
    cluster_parser.add_argument("--duration", type=float, default=None,
                                metavar="S",
                                help="stream arrivals for S simulated "
                                     "seconds instead of a fixed count "
                                     "(combine with --requests to cap "
                                     "both)")
    cluster_parser.add_argument("--exact", action="store_true",
                                help="step and price every scheduler "
                                     "iteration individually (the "
                                     "reference loop; slow on large "
                                     "runs, same output)")
    cluster_parser.add_argument("--workers", type=int, default=1,
                                metavar="N",
                                help="run replica shard groups in N "
                                     "worker processes (default 1 = "
                                     "single-process; results are "
                                     "bit-identical either way)")
    cluster_parser.add_argument("--shards", type=int, default=None,
                                metavar="G",
                                help="number of replica shard groups "
                                     "(default: --workers); the --router "
                                     "policy routes locally within each "
                                     "group behind a stateless "
                                     "request-id hash")
    cluster_parser.add_argument("--progress", action="store_true",
                                help="force the progress line even when "
                                     "stderr is not a terminal")
    cluster_parser.add_argument("--tenants", type=int, default=None,
                                metavar="N",
                                help="serve a multi-tenant workload: N "
                                     "users with Zipf-skewed demand and "
                                     "multi-stage interactions (adds a "
                                     "per-tenant report section)")
    cluster_parser.add_argument("--apps", type=int, default=1,
                                help="apps in the tenant workload "
                                     "(default 1; needs --tenants)")
    cluster_parser.add_argument("--scheduler", default=None,
                                choices=["fcfs", "vtc", "wsc"],
                                help="admission scheduler per replica "
                                     "(default: built-in FCFS; vtc/wsc "
                                     "are fair schedulers)")
    cluster_parser.add_argument("--throttle", type=int, nargs="?",
                                const=8, default=None, metavar="MAX",
                                help="door throttling: at most MAX "
                                     "admitted requests per user per "
                                     "window (default 8 when given "
                                     "without a value; needs --tenants)")
    cluster_parser.add_argument("--throttle-window", type=float,
                                default=60.0, metavar="SECONDS",
                                help="sliding throttle window "
                                     "(default 60)")
    cluster_parser.add_argument("--throttle-policy", default="interaction",
                                choices=["interaction", "request"],
                                help="decide at interaction start "
                                     "(never aborts mid-chain) or per "
                                     "request (naive; aborts waste "
                                     "completed stages)")
    cluster_parser.add_argument("--trace", default=None, metavar="PATH",
                                help="write a Chrome trace-event JSON of "
                                     "the fleet timeline (open in Perfetto)")
    cluster_parser.add_argument("--solver", default="simulate",
                                choices=["simulate", "fluid"],
                                help="simulate (default): event-driven "
                                     "simulation; fluid: analytic "
                                     "mean-field steady state — same "
                                     "fleet/workload flags, milliseconds "
                                     "instead of event stepping")
    cluster_parser.set_defaults(func=_cmd_cluster)

    plan_parser = sub.add_parser(
        "plan", help="analytic what-if sweep over arrival rates "
                     "(fluid steady-state solver)")
    _add_fleet_args(plan_parser)
    plan_parser.add_argument("--rates", required=True,
                             help="comma-separated arrival rates to "
                                  "solve, requests/s (e.g. 1,2,4,8)")
    plan_parser.add_argument("--confirm", type=int, nargs="?", const=2000,
                             default=None, metavar="N",
                             help="replay each rate point through the "
                                  "exact simulator with N requests "
                                  "(default 2000) and add measured "
                                  "columns")
    plan_parser.set_defaults(func=_cmd_plan)

    trace_parser = sub.add_parser(
        "trace", help="record and render a fleet timeline trace")
    trace_parser.add_argument("--platforms", default="spr,spr",
                              help="comma-separated replica platforms")
    trace_parser.add_argument("--model", default="llama2-7b")
    trace_parser.add_argument("--router", default="phase_aware",
                              choices=["round_robin", "jsq",
                                       "least_tokens", "phase_aware"])
    trace_parser.add_argument("--rate", type=float, default=0.4,
                              help="baseline arrival rate, requests/s")
    trace_parser.add_argument("--burst-rate", type=float, default=4.0,
                              help="burst arrival rate (0 disables bursts)")
    trace_parser.add_argument("--requests", type=int, default=16)
    trace_parser.add_argument("--batch", type=int, default=4,
                              help="per-replica max batch")
    trace_parser.add_argument("--ttft", type=float, default=2.0)
    trace_parser.add_argument("--tpot", type=float, default=0.2)
    trace_parser.add_argument("--seed", type=int, default=23)
    trace_parser.add_argument("--fail-node", default=None, metavar="NAME",
                              help="inject a failure of this replica "
                                   "(e.g. spr-0)")
    trace_parser.add_argument("--fail-at", type=float, default=10.0,
                              help="failure injection time, seconds")
    trace_parser.add_argument("--width", type=int, default=72,
                              help="ASCII timeline width, characters")
    trace_parser.add_argument("--out", default=None, metavar="PATH",
                              help="also write Chrome trace-event JSON here")
    trace_parser.set_defaults(func=_cmd_trace)

    advise_parser = sub.add_parser("advise",
                                   help="recommend a deployment config")
    advise_parser.add_argument("--model", required=True)
    advise_parser.add_argument("--metric", default="e2e_throughput",
                               choices=["ttft_s", "tpot_s", "e2e_s",
                                        "e2e_throughput"])
    _add_request_args(advise_parser, placement=False)
    advise_parser.set_defaults(func=_cmd_advise)

    sub.add_parser("calibration",
                   help="check all paper calibration targets").set_defaults(
        func=_cmd_calibration)

    sub.add_parser("platforms", help="list platforms").set_defaults(
        func=_cmd_platforms)
    sub.add_parser("models", help="list models").set_defaults(
        func=_cmd_models)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head);
        # that is not an error for a CLI.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
