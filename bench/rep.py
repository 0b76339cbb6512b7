"""One benchmark rep in a fresh interpreter: set up, time, check, report.

``run.py`` spawns this once per rep, so every rep starts with cold memo
tables, as every ``repro`` CLI call does. It prints one JSON object as
the last line of its standard output.

Usage::

    python3 bench/rep.py --workload NAME [--seed N] [--quick] [--trace]
    python3 bench/rep.py --workload NAME --seed N --write-golden

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to the start of the timed
call. ``--write-golden`` stores this run's digest as the workload's
golden for the seed, for when an output changes on purpose.

``setup_s`` and ``run_s`` are host-normalized: wall seconds divided by
how much slower than nominal the host ran meanwhile (``HostProbe``). On
a shared host the machine runs up to 1.6x slower for a minute at a time,
which no median over reps can hide; the probe sees it happen. The raw
wall times are reported too, as ``setup_wall_s`` and ``run_wall_s``.
"""

import argparse
import json
import os
import resource
import signal
import sys
import time

import workloads

OUT_DIR = os.path.join(workloads.BENCH, "out")


class HostProbe:
    """Samples the host's speed while the rep runs, from a timer signal.

    Every ``INTERVAL_S`` of wall time the handler times a fixed loop of
    ``ITERATIONS`` steps (about 0.4% of the rep's time). The handler
    runs between the simulator's own bytecodes, so the samples see the
    same stalls and slow clocks as the rep. The loop is bench code, so a
    slower simulator still reads slower.
    """

    INTERVAL_S = 0.01
    ITERATIONS = 1000
    #: Mean sample on the host the baseline was recorded on (2 vCPUs,
    #: Python 3.11, no other load).
    NOMINAL_S = 4.0e-05

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def _sample(self, signum, frame):
        begin = time.perf_counter()
        total = 0
        for i in range(self.ITERATIONS):
            total += i & 7
        self.samples.append(time.perf_counter() - begin)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def slowdown(self, begin, end):
        """Mean sample over ``samples[begin:end]`` relative to nominal."""
        window = self.samples[begin:end] or self.samples
        return sum(window) / len(window) / self.NOMINAL_S


def main(argv=None):
    probe = HostProbe()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    workload = workloads.WORKLOADS[args.workload]
    profile = None
    if args.trace:
        import layers
        profile = layers.install(args.workload)

    state = workload.setup(args.seed, args.quick)
    ready = len(probe.samples)
    start, origin = time.monotonic(), time.perf_counter()
    result = state.call()
    run_wall_s = time.monotonic() - start
    probe.stop()
    run_slowdown = probe.slowdown(ready, None)
    record = {
        "setup_s": (start - t0) / probe.slowdown(0, ready),
        "run_s": run_wall_s / run_slowdown,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "generate_s": state.generate_s,
    }
    if profile is not None:
        # Snapshot before the checks, which call into the layers too.
        record["layer_metrics"] = profile.metrics(run_wall_s)
        record["layers"] = profile.layers()
        record["spans_dropped"] = profile.dropped
        spans = list(profile.spans)

    checks = workloads.Checks()
    digest, extras = workload.check(state, result, checks)
    extras.update(setup_wall_s=start - t0, run_wall_s=run_wall_s,
                  host_slowdown=run_slowdown)
    if hasattr(state, "arrivals"):
        extras["sim_req_per_s"] = len(state.arrivals) / run_wall_s
    if args.write_golden:
        workloads.write_golden(args.workload, args.seed, digest)
    record["golden"] = workloads.compare_golden(
        args.workload, args.seed, args.quick, digest, checks)
    record["checks"] = checks.results
    record["extras"] = extras
    if profile is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        profile.write_perfetto(
            os.path.join(OUT_DIR, f"trace-{args.workload}.json"), spans,
            origin)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
