"""Every CLI command's traffic, pinned byte for byte.

``data/cli_golden.json`` records, for every case below, the exit code,
stdout and stderr of ``repro.cli.main(argv)`` and the SHA-256 of every
file the run wrote, with ``{tmp}`` standing for a per-case scratch
directory. It also records each subparser's option set as
``(dest, default, const, choices, nargs, required, type)``.

Exit codes and option sets are compared on every interpreter. Text and
file bytes are compared only on the Python minor version that recorded
them (the ``python`` field): the simulator's floats are deterministic,
but not guaranteed bit-identical across interpreter versions.

After an intended output change, re-record with::

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
from unittest import mock

import pytest

from repro.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

FLEET = "--platforms spr,spr --model llama2-7b"
TIERED = ("--platforms icl,spr --models llama2-7b,llama2-13b "
          "--router tiered --rate 1.5")
FLUID = f"cluster {FLEET} --solver fluid --rate 2"

CASES = {
    # cluster, simulate solver
    "cluster-single": f"cluster {FLEET} --rate 2 --requests 24 --seed 3",
    "cluster-workers2": f"cluster {FLEET} --rate 2 --requests 24 --seed 3 "
                        "--workers 2",
    "cluster-shards3-duration": "cluster --platforms spr,spr,spr "
                                "--model llama2-7b --rate 2 --shards 3 "
                                "--duration 12",
    "cluster-tenants-vtc-throttle": f"cluster {FLEET} --rate 3 "
                                    "--requests 40 --tenants 4 "
                                    "--scheduler vtc --throttle 2",
    "cluster-tenants-workers2": f"cluster {FLEET} --rate 3 --requests 40 "
                                "--tenants 4 --workers 2",
    "cluster-tiered-class-mix": f"cluster {TIERED} --requests 24 "
                                "--class-mix simple:0.5,reasoning:0.5",
    "cluster-tiered-workers2": f"cluster {TIERED} --requests 24 "
                               "--workers 2",
    "cluster-int8-exact-burst": f"cluster {FLEET} --backend int8 --exact "
                                "--rate 0.5 --burst-rate 4 --requests 16",
    "cluster-mixed-models-backends": "cluster --platforms spr,spr "
                                     "--models llama2-7b,llama2-13b "
                                     "--backend int8-tp2,bf16 --exact "
                                     "--requests 12",
    "cluster-trace": f"cluster {FLEET} --requests 8 --trace {{tmp}}/c.json",
    # cluster, fluid solver
    "fluid": FLUID,
    "fluid-classes": f"{FLUID} --classes simple,reasoning --router tiered",
    # plan
    "plan-confirm": f"plan {FLEET} --rates 1,3 --confirm 200",
    "plan-classes": f"plan {FLEET} --rates 1,4 --classes simple,reasoning",
    # a mixed fleet whose tiered fixed point converges at 0.5/s and stops
    # at the iteration cap at 1.5/s: one warning, for the capped rate
    "plan-classes-capped": "plan --platforms spr,a100 --model llama2-13b "
                           "--rates 0.5,1.5 --classes simple,reasoning",
    # trace
    "trace-fail-node": "trace --requests 12 --fail-node spr-0 --fail-at 5",
    "trace-poisson-jsq-out": "trace --requests 12 --burst-rate 0 "
                             "--router jsq --out {tmp}/t.json",
    # replica names come from the spec on both legs
    "cluster-platform-aliases": "cluster --platforms spr-max-9468,spr "
                                "--model llama2-7b --requests 8",
    "cluster-platform-aliases-workers2": "cluster --platforms "
                                         "spr-max-9468,spr --model "
                                         "llama2-7b --requests 8 "
                                         "--workers 2",
    # exit-2 paths of trace
    "err-trace-unknown-node": "trace --requests 12 --fail-node spr-9",
    "err-trace-unknown-model": "trace --model nosuch",
    # exit-2 paths of cluster (simulate)
    "err-exact-mode": f"cluster {FLEET} --exact bogus",
    "err-trace-sharded": f"cluster {FLEET} --workers 2 "
                         "--trace {tmp}/c.json",
    "err-trace-no-dir": f"cluster {FLEET} --trace {{tmp}}/missing/c.json",
    "err-no-model": "cluster --platforms spr,spr",
    "err-unknown-model": "cluster --platforms spr --model nosuch",
    "err-unknown-platform": "cluster --platforms tpu --model llama2-7b",
    "err-model-exceeds-memory": "cluster --platforms h100 --model opt-66b",
    "err-models-mismatch": "cluster --platforms spr,spr "
                           "--models llama2-7b,llama2-7b,llama2-13b",
    "err-classes-and-mix": f"cluster {FLEET} --classes simple "
                           "--class-mix simple:1",
    "err-unknown-class": f"cluster {FLEET} --classes bogus",
    "err-classes-with-tenants": f"cluster {FLEET} --classes simple "
                                "--tenants 3",
    "err-throttle-without-tenants": f"cluster {FLEET} --throttle",
    "err-backend-mismatch": f"cluster {FLEET} --backend int8,bf16,int4",
    "err-backend-mismatch-sharded": f"cluster {FLEET} "
                                    "--backend int8,bf16,int4 --workers 2",
    "err-tp-exceeds-sockets": f"cluster {FLEET} --backend tp4",
    "err-shards-exceed-fleet": f"cluster {FLEET} --shards 3",
    # exit-2 paths of cluster --solver fluid
    "err-fluid-trace": f"{FLUID} --trace {{tmp}}/c.json",
    "err-fluid-tenants": f"{FLUID} --tenants 3",
    "err-fluid-burst": f"{FLUID} --burst-rate 4",
    "err-fluid-exact": f"{FLUID} --exact",
    "err-fluid-workers": f"{FLUID} --workers 2",
    "err-fluid-shards": f"{FLUID} --shards 2",
    "err-fluid-unknown-model": "cluster --platforms spr --model nosuch "
                               "--solver fluid",
    "err-fluid-model-exceeds-memory": "cluster --platforms h100 "
                                      "--model opt-66b --solver fluid",
    "err-fluid-models-mismatch": "cluster --platforms spr "
                                 "--models llama2-7b,llama2-13b "
                                 "--solver fluid",
    # exit-2 paths of plan
    "err-plan-rates-nonpositive": f"plan {FLEET} --rates 0,1",
    "err-plan-rates-text": f"plan {FLEET} --rates one",
    "err-plan-unknown-model": "plan --platforms spr --model nosuch "
                              "--rates 1",
    "err-plan-model-exceeds-memory": "plan --platforms h100 "
                                     "--model opt-66b --rates 1",
    "err-plan-classes-and-mix": f"plan {FLEET} --rates 1 --classes simple "
                                "--class-mix simple:1",
    "err-plan-confirm-nonpositive": f"plan {FLEET} --rates 1 --confirm 0",
    # NUMA and hybrid backend tokens; the second spec's options reattach
    # across the commas, giving one spec per replica
    "cluster-numa-aware": f"cluster {FLEET} --backend numa:snc_flat,aware "
                          "--requests 8",
    "cluster-numa-hot-hybrid": f"cluster {FLEET} --backend "
                               "numa:quad_flat,hot=0.9,hybrid:a100 "
                               "--requests 8",
    # a hybrid replica reads the quantized inner backend's weight bytes
    "cluster-int8-hybrid": f"cluster {FLEET} --backend int8-hybrid:a100 "
                           "--requests 8",
    "err-backend-unknown-token": f"cluster {FLEET} --backend int9",
    "err-backend-hot-out-of-range": f"cluster {FLEET} "
                                    "--backend numa:quad_flat,hot=2",
    # single-request and listing commands
    "run": "run --platform spr --model opt-13b --batch 8",
    "sweep-numa": "sweep --platforms icl,spr --models opt-1.3b,opt-13b "
                  "--batches 1,8 --numa quad_flat",
    "roofline": "roofline --platform spr --model llama2-13b",
    "advise": "advise --model opt-13b --batch 8",
    "calibration": "calibration",
    "platforms": "platforms",
    "models": "models",
    "experiment-table1": "experiment table1",
    # exit-2 paths of the single-request commands
    "err-experiment-no-id": "experiment",
    "err-experiment-unknown": "experiment nosuch",
    "err-run-unknown-model": "run --platform spr --model nosuch",
    "err-roofline-unknown-platform": "roofline --platform tpu "
                                     "--model llama2-7b",
    "err-sweep-unknown-numa": "sweep --platforms spr --models opt-1.3b "
                              "--numa bogus",
    "err-sweep-numa-gpu": "sweep --platforms a100 --models opt-1.3b "
                          "--numa quad_flat",
    "err-advise-unknown-model": "advise --model nosuch",
    # advise ranks its own placements, so it takes no placement flags
    "err-advise-numa": "advise --model opt-13b --numa snc_flat",
    "err-run-cores-gpu": "run --platform h100 --model opt-13b --cores 7",
}


def run_case(argv_text: str, tmp: pathlib.Path) -> dict:
    """Run one CLI invocation in-process; return what it printed/wrote."""
    argv = shlex.split(argv_text.replace("{tmp}", str(tmp)))
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal width.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as error:  # argparse rejected the flags
            code = error.code
    files = {
        str(path.relative_to(tmp)): hashlib.sha256(path.read_bytes())
        .hexdigest()
        for path in sorted(tmp.rglob("*")) if path.is_file()}
    return {"exit": code,
            "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
            "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
            "files": files}


def option_sets() -> dict:
    """Every subparser's options as comparable plain data."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {
        name: sorted(
            [action.dest, repr(action.default), repr(action.const),
             repr(action.choices), repr(action.nargs), action.required,
             getattr(action.type, "__name__", None)]
            for action in sub._actions)
        for name, sub in subparsers.choices.items()}


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


def test_option_sets_unchanged(golden):
    assert option_sets() == golden["options"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_golden(golden, case, tmp_path):
    result = run_case(CASES[case], tmp_path)
    pin = golden["cases"][case]
    assert result["exit"] == pin["exit"]
    if golden["python"] != python_version():
        pytest.skip(f"text recorded on Python {golden['python']}")
    assert result["stdout"] == pin["stdout"]
    assert result["stderr"] == pin["stderr"]
    assert result["files"] == pin["files"]


def record() -> None:
    import tempfile

    cases = {}
    for case, argv_text in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = run_case(argv_text, pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(
        {"python": python_version(), "options": option_sets(),
         "cases": cases}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
