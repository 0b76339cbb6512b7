"""Compare two benchmark results files, metric by metric.

Usage::

    python3 bench/compare.py A.json B.json

A is the baseline (the parent commit), B the change. One row per
(workload, end-to-end metric) present in both, with each side's median
and quartiles and a verdict under the bounds BENCHMARK.json fixes:

* ``unresolved`` — one side's own spread (q3 - q1, as a share of its
  median) is wider than the bound, and B's runs do not all read better
  than all of A's;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the bound, or
  every run of B reads better than every run of A;
* ``unchanged`` — otherwise.

Per-layer self times present in both files follow, as deltas with no
verdict: they explain a change, they do not gate it.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(a, b, better, bound):
    """Verdict for B against A, each a summary with median/q1/q3/values."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive means worse, in the metric's own direction.
    change = sign * (b["median"] - a["median"]) / a["median"]
    all_better = all(sign * (vb - va) < 0
                     for va in a["values"] for vb in b["values"])
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if all_better:
        return change, "better"
    if spread > bound:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "unchanged"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sides = []
    for path in argv:
        with open(path) as handle:
            sides.append(json.load(handle)["workloads"])
    a_side, b_side = sides
    shared = [w["name"] for w in spec["workloads"]
              if w["name"] in a_side and w["name"] in b_side]

    row = "{:<13} {:<12} {:>11} {:>23} {:>11} {:>23} {:>8}  {}"
    print(row.format("workload", "metric", "A median", "A q1..q3", "B median",
                     "B q1..q3", "change", "verdict"))
    verdicts = []
    for name in shared:
        for metric in spec["end_to_end"]:
            a = a_side[name]["metrics"].get(metric["name"])
            b = b_side[name]["metrics"].get(metric["name"])
            if a is None or b is None:
                continue
            change, result = verdict(a, b, metric["better"], metric["bound"])
            verdicts.append(result)
            print(row.format(
                name, metric["name"], f"{a['median']:.5g}",
                f"{a['q1']:.5g}..{a['q3']:.5g}", f"{b['median']:.5g}",
                f"{b['q1']:.5g}..{b['q3']:.5g}", f"{change:+.1%}", result))

    layer_rows = []
    for name in shared:
        a_layers = a_side[name].get("per_layer", {})
        b_layers = b_side[name].get("per_layer", {})
        for metric in sorted(set(a_layers) & set(b_layers)):
            if metric.endswith("self_s"):
                a_value = a_layers[metric]["value"]
                b_value = b_layers[metric]["value"]
                if a_value or b_value:
                    layer_rows.append((name, metric, a_value, b_value))
    if layer_rows:
        print()
        print("{:<13} {:<36} {:>10} {:>10} {:>10}".format(
            "workload", "per-layer self time (s)", "A", "B", "B - A"))
        for name, metric, a_value, b_value in layer_rows:
            print(f"{name:<13} {metric:<36} {a_value:>10.4f} "
                  f"{b_value:>10.4f} {b_value - a_value:>+10.4f}")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
