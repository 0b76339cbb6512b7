"""Structured tracing: the simulated analog of the paper's perf/VTune
timeline.

Every simulator layer (engine phases, batching scheduler, replica
iterations, cluster lifecycle) accepts a :class:`Tracer` and emits spans,
instants, and counters into one :class:`Trace`; exporters render it as
Chrome trace-event JSON (Perfetto) or an ASCII gantt, and analyses derive
per-request latency attribution, batch-occupancy histograms, and
per-replica utilization timelines from it. The default
:data:`NOOP_TRACER` discards everything at <2% overhead (pinned by
``benchmarks/test_trace_overhead.py``).
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".analysis": ("RequestAttribution", "batch_occupancy_histogram",
                  "replica_utilization_timeline", "request_attribution"),
    ".export": ("ascii_timeline", "to_chrome_trace", "write_chrome_trace"),
    ".spans": ("CLUSTER_TRACK", "ENGINE_TRACK", "CounterSample",
               "InstantEvent", "Span", "Trace", "replica_track",
               "request_track"),
    ".tracer": ("NOOP_TRACER", "NoopTracer", "RecordingTracer", "Tracer"),
})
