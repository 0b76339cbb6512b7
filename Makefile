# Developer entry points. The python toolchain is assumed present; the
# library itself needs only the standard library.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-cluster bench-fairness bench-tiering bench-fluid bench-fleetmix bench-figures bench-json trace reach

# Tier-1 test suite (must stay green).
test:
	$(PYTHON) -m pytest -x -q

# Performance benchmark: fig-8 grid + decode-pricing microbenchmark,
# recorded in BENCH_sweep.json.
bench:
	$(PYTHON) tools/bench.py --json BENCH_sweep.json

# Cluster benchmark: 100k-request fleet, per-iteration loop vs the
# event-horizon fast-forward, recorded in BENCH_cluster.json. The exact
# reference leg takes a few minutes.
bench-cluster:
	$(PYTHON) tools/bench.py --suite cluster --json BENCH_cluster.json

# Fairness-scheduler overhead: 100k-request tenant stream through the
# built-in FCFS loop vs VTC/WSC, merged into BENCH_cluster.json under
# the "fairness" key.
bench-fairness:
	$(PYTHON) tools/bench.py --suite fairness

bench-tiering:
	$(PYTHON) tools/bench.py --suite tiering

# Fluid steady-state solver vs exact fast-forward on a 10-point
# provisioning sweep; merges a "fluid" key into BENCH_cluster.json.
bench-fluid:
	$(PYTHON) tools/bench.py --suite fluid

# Mixed CPU/GPU/hybrid fleet: fast-forward vs exact stepping parity
# plus the fluid-vs-exact envelope on the ext_fleetmix fleet shape;
# merges a "fleetmix" key into BENCH_cluster.json.
bench-fleetmix:
	$(PYTHON) tools/bench.py --suite fleetmix

bench-json: bench

# Per-figure benchmark harness (pytest-benchmark), including the
# perf-regression guard in benchmarks/test_perf_regression.py and the
# tracing noop-overhead guard in benchmarks/test_trace_overhead.py.
bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Tracing demo: record a bursty two-replica fleet, render the ASCII
# timeline + attribution tables, and write a Perfetto-loadable JSON.
trace:
	$(PYTHON) -m repro trace --out trace.json

# Reach audit: every src function no experiment, example or golden CLI
# case calls, and every defaulted parameter none of them varies, beside
# the exemptions; the output must match docs/reach.md. About 15 s, so it
# is not part of `make test`.
reach:
	$(PYTHON) tools/reach.py
