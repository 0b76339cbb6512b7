"""Per-layer host-time profile for the benchmark's traced rep.

Wrappers installed from here, around the public functions and methods of
each simulator layer, attribute host time to the layer that spent it.
Nothing under ``src/`` changes: the traced rep patches classes and module
attributes in its own interpreter only, and untraced reps never import
this module.

Attribution uses a call stack. A span's *self* time is its duration
minus the durations of the spans it encloses, so self times add up to
the traced run without double counting. A call into a layer from inside
the same layer (``ShardRouter.select`` delegating to its local router,
``time_ops`` calling ``time_op``) is folded into the outer span, so
``calls`` counts entries into a layer from outside it.

Aggregates are kept for every call. Raw spans are kept only down to
``MAX_DEPTH`` and up to ``MAX_SPANS``, so a run with millions of
``advance_to`` calls keeps a bounded trace.
"""

import importlib
import json
import sys
import time

#: Raw spans kept for depth 0 (outermost) .. MAX_DEPTH.
MAX_DEPTH = 2
#: Hard cap on raw spans; later spans are only counted as dropped.
MAX_SPANS = 20_000

_LOOKUPS = ("prefill_time", "prefill_split", "step_time", "step_split",
            "range_cost", "prefix_times", "step_times", "steps_within")
_EXECUTOR = ("time_op", "time_ops", "time_prefill_ops", "prefill_comm_s",
             "decode_comm_s", "time_decode_range", "time_decode_series")
_BACKEND = ("prefill_ops", "decode_ops", "verify_ops", "adjust_timing",
            "prefill_comm_s", "decode_comm_s", "allreduce_s", "weight_bytes",
            "footprint_bytes", "tier_bandwidth", "memory_capacity_bytes")
_ADMISSION = ("on_arrival", "pick", "on_admit", "on_finish")

#: Experiment ids that reproduce the paper itself; every other registered
#: experiment (ext_*, ablations, what-ifs, advisor) counts as extension.
_PAPER_PREFIXES = ("fig", "table")
_PAPER_IDS = ("findings", "sec6", "calibration")


class LayerProfile:
    """Call counts, inclusive and self time per layer, plus raw spans."""

    def __init__(self, workload: str):
        self.workload = workload
        self.calls = {}
        self.incl_s = {}
        self.self_s = {}
        self.counts = {}
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next_id = 0

    def bump(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _close(self, frame, end):
        prefix, start, child_s, span_id = frame
        duration = end - start
        self.calls[prefix] = self.calls.get(prefix, 0) + 1
        self.incl_s[prefix] = self.incl_s.get(prefix, 0.0) + duration
        self.self_s[prefix] = self.self_s.get(prefix, 0.0) + duration - child_s
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        if span_id is not None:
            parent = stack[-1][3] if stack else None
            self.spans.append((span_id, prefix, start, end, parent))

    def span(self, prefix, func, on_result=None, tally=None):
        """*func* wrapped so its calls are attributed to layer *prefix*.

        *on_result(profile, args, result)* runs after each outermost call;
        *tally* names a counter bumped on every call, folded ones too.
        """
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tally is not None:
                self.counts[tally] = self.counts.get(tally, 0) + 1
            if stack and stack[-1][0] == prefix:
                return func(*args, **kwargs)
            span_id = None
            if len(stack) <= MAX_DEPTH:
                if self._next_id < MAX_SPANS:
                    span_id = self._next_id
                    self._next_id += 1
                else:
                    self.dropped += 1
            frame = [prefix, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def counter(self, name, func):
        """*func* wrapped to count its calls under *name*, untimed."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def wrap_methods(self, cls, names, prefix, on_result=None, tallies=None):
        """Wrap *names* on *cls* and on every subclass that defines them."""
        tallies = tallies or {}
        for klass in _family(cls):
            for name in names:
                if name in vars(klass) and callable(vars(klass)[name]):
                    setattr(klass, name, self.span(
                        prefix, vars(klass)[name], on_result,
                        tallies.get(name)))

    def wrap_function(self, module, name, prefix, on_result=None):
        """Wrap a module function and every loaded alias of it."""
        original = getattr(module, name)
        wrapper = self.span(prefix, original, on_result)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)

    # -- results ------------------------------------------------------------

    def metrics(self, run_s):
        """Per-layer metric values, by the names BENCHMARK.json lists."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def memo_hit_ratio(*cached):
            hits = sum(f.cache_info().hits for f in cached)
            misses = sum(f.cache_info().misses for f in cached)
            return ratio(hits, hits + misses)

        from repro.gemm import efficiency
        from repro.models import opgraph

        values = {}
        for prefix, keys in (
                ("cluster.simulator", ("self_s",)),
                ("cluster.node.advance_to", ("calls", "self_s")),
                ("cluster.node.submit", ("self_s",)),
                ("cluster.router.select", ("calls", "self_s")),
                ("cluster.admission", ("calls", "self_s")),
                ("engine.stepcost.lookup", ("calls", "self_s")),
                ("engine.stepcost.expected", ("calls", "self_s")),
                ("engine.executor", ("calls", "self_s")),
                ("engine.backend", ("calls", "self_s")),
                ("engine.inference.run", ("calls", "self_s")),
                ("serving.scheduler", ("calls", "self_s")),
                ("offload.run", ("calls", "self_s")),
                ("cluster.fluid.solve", ("calls", "self_s")),
                ("optim.advisor.measure_fleet", ("calls", "self_s"))):
            for key in keys:
                table = calls if key == "calls" else self_s
                values[f"{prefix}.{key}"] = table.get(prefix, 0)
        for name in ("cluster.simulator.events", "cluster.node.iterations",
                     "engine.stepcost.tables", "engine.executor.time_op.calls",
                     "cluster.fluid.regime.stable", "cluster.fluid.regime.near",
                     "cluster.fluid.regime.overloaded"):
            values[name] = counts.get(name, 0)
        values["cluster.node.iters_per_advance"] = ratio(
            counts.get("cluster.node.iterations", 0),
            calls.get("cluster.node.advance_to", 0))
        values["optim.advisor.confirm_accept_ratio"] = ratio(
            counts.get("optim.advisor.accepted", 0),
            counts.get("optim.advisor.confirmations", 0))
        values["gemm.memo_hit_ratio"] = memo_hit_ratio(
            efficiency._gemm_efficiency_cached)
        values["models.opgraph.memo_hit_ratio"] = memo_hit_ratio(
            opgraph._prefill_ops_cached, opgraph._decode_step_ops_cached)
        values["experiments.paper_s"] = self.incl_s.get(
            "experiments.paper", 0.0)
        values["experiments.ext_s"] = self.incl_s.get("experiments.ext", 0.0)
        values["trace.unattributed_frac"] = ratio(
            run_s - sum(self_s.values()), run_s)
        return values

    def layers(self):
        """Aggregates per layer, heaviest self time first."""
        return {prefix: {"calls": self.calls[prefix],
                         "incl_s": self.incl_s[prefix],
                         "self_s": self.self_s[prefix]}
                for prefix in sorted(self.self_s, key=self.self_s.get,
                                     reverse=True)}

    def write_perfetto(self, path, spans, origin):
        """Write *spans* as Chrome trace JSON (loads in Perfetto)."""
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                   "pid": 1, "tid": 1,
                   "args": {"id": span_id, "parent": parent,
                            "workload": self.workload}}
                  for span_id, name, start, end, parent in spans]
        events.sort(key=lambda event: event["ts"])
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"workload": self.workload,
                                     "spans_dropped": self.dropped}},
                      handle)


def _family(cls):
    """*cls* and all of its subclasses, depth first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_family(sub))
    return found


def _on_cluster_run(profile, args, report):
    profile.bump("cluster.simulator.events", len(report.queue_depth_timeline))
    profile.bump("cluster.node.iterations",
                 sum(stats.iterations for stats in report.node_stats))


def _on_solve(profile, args, report):
    regime = {"near-saturation": "near"}.get(report.regime, report.regime)
    profile.bump(f"cluster.fluid.regime.{regime}")


def _on_recommend(profile, args, recommendation):
    profile.bump("optim.advisor.confirmations",
                 len(recommendation.confirmations))
    profile.bump("optim.advisor.accepted",
                 sum(c.accepted for c in recommendation.confirmations))


def install(workload: str) -> LayerProfile:
    """Import every profiled layer and wrap its public entry points."""
    mod = importlib.import_module
    profile = LayerProfile(workload)
    simulator = mod("repro.cluster.simulator")
    node = mod("repro.cluster.node")
    router = mod("repro.cluster.router")
    mod("repro.cluster.tiering")  # registers TieredRouter as a Router
    admission = mod("repro.cluster.admission")
    stepcost = mod("repro.engine.stepcost")
    executor = mod("repro.engine.executor")
    backend = mod("repro.engine.backend")
    inference = mod("repro.engine.inference")
    scheduler = mod("repro.serving.scheduler")
    offload = mod("repro.offload.engine")
    fluid = mod("repro.cluster.fluid")
    advisor = mod("repro.optim.advisor")
    base = mod("repro.experiments.base")
    mod("repro.experiments")  # fills the experiment registry

    profile.wrap_methods(simulator.ClusterSimulator, ("run",),
                         "cluster.simulator", _on_cluster_run)
    profile.wrap_methods(node.ReplicaNode, ("advance_to",),
                         "cluster.node.advance_to")
    profile.wrap_methods(node.ReplicaNode, ("submit",), "cluster.node.submit")
    profile.wrap_methods(router.Router, ("select",), "cluster.router.select")
    profile.wrap_methods(admission.AdmissionScheduler, _ADMISSION,
                         "cluster.admission")
    profile.wrap_methods(stepcost.DecodeCostTable, _LOOKUPS,
                         "engine.stepcost.lookup")
    profile.wrap_methods(stepcost.DecodeCostTable,
                         ("expected_prefill_time", "expected_decode_time"),
                         "engine.stepcost.expected")
    stepcost.DecodeCostTable.__init__ = profile.counter(
        "engine.stepcost.tables", stepcost.DecodeCostTable.__init__)
    profile.wrap_methods(executor.OperatorExecutor, _EXECUTOR,
                         "engine.executor",
                         tallies={"time_op": "engine.executor.time_op.calls"})
    profile.wrap_methods(backend.ExecutionBackend, _BACKEND, "engine.backend")
    profile.wrap_methods(inference.InferenceSimulator, ("run",),
                         "engine.inference.run")
    profile.wrap_methods(scheduler.BatchingSimulator,
                         ("run_static", "run_continuous", "run_chunked"),
                         "serving.scheduler")
    profile.wrap_methods(offload.OffloadSimulator, ("run",), "offload.run")
    profile.wrap_function(fluid, "solve", "cluster.fluid.solve", _on_solve)
    profile.wrap_function(advisor, "measure_fleet",
                          "optim.advisor.measure_fleet")
    profile.wrap_function(advisor, "recommend_fleet",
                          "optim.advisor.recommend_fleet", _on_recommend)
    for experiment_id, runner in list(base._REGISTRY.items()):
        paper = (experiment_id.startswith(_PAPER_PREFIXES)
                 or experiment_id in _PAPER_IDS)
        base._REGISTRY[experiment_id] = profile.span(
            "experiments.paper" if paper else "experiments.ext", runner)
    return profile
