"""The benchmark's four workloads at full size, against their goldens.

Each case runs one workload of ``bench/workloads.py`` for seed 7 or 8 at
full size, through the workload's own ``setup``, timed call and
``check``, and compares the digest with ``data/bench_golden/``: the
copies of ``bench/golden/*.json``, under the benchmark's rule (integers
and strings exact, floats to 1e-9 relative). Every invariant check the
workload counts must pass too.

``bench/`` is read, never written. ``paper-regen``'s section checks
compare each experiment with the committed ``EXPERIMENTS.md``, whose
text is recorded on Python 3.11 (CI diffs it on 3.11 only), so they
count only there; its digest counts everywhere.

After an intended output change, copy the re-recorded goldens::

    python bench/rep.py --workload NAME --seed N --write-golden
    cp bench/golden/*.json tests/data/bench_golden/
"""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "bench_golden"
#: The interpreter ``EXPERIMENTS.md`` is recorded on.
RECORDING_PYTHON = (3, 11)


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
CASES = [(name, seed) for name in sorted(WORKLOADS.WORKLOADS)
         for seed in WORKLOADS.GOLDEN_SEEDS]


@pytest.mark.parametrize("name,seed", CASES,
                         ids=[f"{name}-seed{seed}" for name, seed in CASES])
def test_digest_matches_golden(name, seed):
    workload = WORKLOADS.WORKLOADS[name]
    state = workload.setup(seed, False)
    checks = WORKLOADS.Checks()
    digest, _ = workload.check(state, state.call(), checks)
    # Round-trip so tuples and float formatting match the stored form.
    digest = json.loads(json.dumps(digest))
    golden = json.loads((GOLDEN_DIR / f"{name}-seed{seed}.json").read_text())
    assert sorted(digest) == sorted(golden)
    for key in sorted(golden):
        assert WORKLOADS.matches(digest[key], golden[key]), key
    failed = checks.failed
    if sys.version_info[:2] != RECORDING_PYTHON:
        failed = [check for check in failed
                  if not check.startswith("section.")]
    assert failed == []
