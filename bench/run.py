"""Benchmark: end-to-end and per-layer host time of the simulator.

Runs the workloads BENCHMARK.json names. Each rep is a fresh interpreter
(``rep.py``) started one at a time with one BLAS/OpenMP thread, so the
load is one single-threaded process and every rep starts cold, as a
``repro`` CLI call does. Prints every metric with its unit, median,
quartiles and n, checks the simulator's outputs, and writes
``bench/out/results-<rev>-seed<N>.json``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end medians, or per-layer values with ``--trace 1``).

Usage::

    python3 bench/run.py [--workload NAME] [--seed N]
                         [--seconds S | --reps N] [--trace [0|1]] [--quick]

Without ``--workload`` every workload runs and metric names in the last
line are prefixed ``<workload>/``. ``--seconds`` keeps starting reps
until that much time has passed (at least three reps); otherwise
``--reps`` (default 5) reps run. ``--trace`` adds one traced rep per
workload for the per-layer metrics (``bench/out/layers-<workload>.json``
and a Perfetto trace ``bench/out/trace-<workload>.json``); end-to-end
numbers never come from it. Exits non-zero if any output check fails.

``run_s`` and ``setup_s`` are host-normalized seconds (see ``rep.py``);
the raw wall times are reported beside them.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(BENCH, "out")
MIN_REPS = 3
REP_TIMEOUT_S = 150
#: End-to-end extras reported beside BENCHMARK.json's metrics, for the
#: workloads they apply to; compare.py gives them no verdict.
EXTRA_UNITS = {"run_wall_s": "s", "setup_wall_s": "s",
               "host_slowdown": "ratio", "sim_req_per_s": "req/s",
               "paper_mean_rel_err": "ratio", "fluid_att_err": "ratio"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def revision():
    """The git revision, or a hash of ``src/`` outside a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=30)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:10]


def child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for knob in ("REPRO_SWEEP_WORKERS", "REPRO_SWEEP_CACHE_DIR"):
        env.pop(knob, None)
    return env


def run_rep(workload, seed, quick, trace=False):
    """Run one rep in a fresh interpreter and return its record."""
    command = [sys.executable, os.path.join(BENCH, "rep.py"),
               "--workload", workload, "--seed", str(seed)]
    command += ["--quick"] * quick + ["--trace"] * trace
    command += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(command, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} rep failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, unit):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def run_workload(name, args, spec):
    """All reps of one workload, summarized into a results entry."""
    reps = []
    begin = time.monotonic()
    while True:
        reps.append(run_rep(name, args.seed, args.quick))
        if args.seconds is None:
            if len(reps) >= args.reps:
                break
        elif (len(reps) >= MIN_REPS
              and time.monotonic() - begin >= args.seconds):
            break
    traced = run_rep(name, args.seed, args.quick, trace=True) \
        if args.trace else None

    metrics = {}
    for metric in spec["end_to_end"]:
        metrics[metric["name"]] = summarize(
            [rep[metric["name"]] for rep in reps], metric["unit"])
    for extra, unit in EXTRA_UNITS.items():
        if extra in reps[0]["extras"]:
            metrics[extra] = summarize(
                [rep["extras"][extra] for rep in reps], unit)

    records = reps + ([traced] if traced else [])
    failures = sorted({check for rep in records
                       for check, ok in rep["checks"] if not ok})
    entry = {
        "metrics": metrics,
        "attempted": sum(len(rep["checks"]) for rep in records),
        "failed": sum(not ok for rep in records for _, ok in rep["checks"]),
        "failures": failures,
        "golden": ("mismatch" if any(r["golden"] == "mismatch"
                                     for r in records)
                   else records[0]["golden"]),
    }
    if traced is not None:
        per_layer = dict(traced["layer_metrics"])
        per_layer["workloads.generate_s"] = traced["generate_s"]
        per_layer["trace.overhead_frac"] = (
            traced["run_s"] / metrics["run_s"]["median"] - 1.0)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        entry["per_layer"] = {m: {"value": per_layer[m], "unit": units[m]}
                              for m in units}
        entry["layers"] = traced["layers"]
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"layers-{name}.json"), "w") as out:
            json.dump({"workload": name, "seed": args.seed,
                       "run_s": traced["run_s"],
                       "spans_dropped": traced["spans_dropped"],
                       "metrics": entry["per_layer"],
                       "layers": traced["layers"]}, out, indent=1)
    return entry


def save_results(entries, args):
    """Merge *entries* into this revision and seed's results file."""
    rev = revision()
    suffix = "-quick" if args.quick else ""
    path = os.path.join(OUT_DIR, f"results-{rev}-seed{args.seed}{suffix}.json")
    results = {"rev": rev, "seed": args.seed, "quick": args.quick,
               "host": {"cpus": os.cpu_count(),
                        "python": sys.version.split()[0]},
               "workloads": {}}
    if os.path.exists(path):
        with open(path) as handle:
            results["workloads"] = json.load(handle)["workloads"]
    results["workloads"].update(entries)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
    return path


def print_tables(entries):
    row = "{:<13} {:<34} {:>7} {:>12} {:>12} {:>12} {:>3}"
    print(row.format("workload", "metric", "unit", "median", "q1", "q3", "n"))
    for name, entry in entries.items():
        for metric, s in entry["metrics"].items():
            print(row.format(name, metric, s["unit"], f"{s['median']:.6g}",
                             f"{s['q1']:.6g}", f"{s['q3']:.6g}", s["n"]))
        print(row.format(name, "ops_failed_frac", "ratio",
                         f"{entry['failed'] / entry['attempted']:.6g}",
                         "", "", entry["attempted"]))
    for name, entry in entries.items():
        for metric, s in entry.get("per_layer", {}).items():
            print(f"{name:<13} {metric:<40} {s['unit']:>6} "
                  f"{s['value']:.6g}")
    for name, entry in entries.items():
        print(f"{name}: {entry['failed']}/{entry['attempted']} checks "
              f"failed, golden {entry['golden']}"
              + (f" ({', '.join(entry['failures'])})"
                 if entry["failures"] else ""))


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"no simulator source at {ROOT}/src/repro")

    # Compile once up front so no rep's set-up pays bytecode compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=ROOT, check=True, capture_output=True,
                   timeout=REP_TIMEOUT_S)
    selected = [args.workload] if args.workload else names
    entries = {name: run_workload(name, args, spec) for name in selected}
    path = save_results(entries, args)
    print_tables(entries)
    print(f"results: {os.path.relpath(path, ROOT)}")

    metrics = {}
    for name, entry in entries.items():
        for metric in spec["per_layer" if args.trace else "end_to_end"]:
            value = entry["per_layer"][metric["name"]]["value"] \
                if args.trace else entry["metrics"][metric["name"]]["median"]
            label = metric["name"] if args.workload else \
                f"{name}/{metric['name']}"
            metrics[label] = {"value": value, "unit": metric["unit"]}
    attempted = sum(entry["attempted"] for entry in entries.values())
    failed = sum(entry["failed"] for entry in entries.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
