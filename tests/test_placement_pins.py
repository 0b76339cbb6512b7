"""CPU placement pricing pinned bit for bit.

``data/placement_pins.json`` holds exact outputs of every way a CPU run
is placed: its core count, its NUMA memory and clustering mode, and the
sockets it spans.

* ``runs``: SPR at 12/24/48/96 cores and ICL at 16/32/64 cores (plus
  the one-socket default), each under the default placement,
  quad_cache, snc_flat, NUMA-aware snc_flat and hot/cold placement at
  ``hot_fraction=0.8``; and TP2 at one socket on both platforms. Each
  cell pins the :class:`InferenceResult` (TTFT, TPOT, E2E, the config
  label and every per-phase time, FLOP and byte count), the usable
  memory capacity, and every :class:`CounterEstimates` counter of the
  same run.
* ``tenancy``: :class:`MultiTenantSimulator` at 1, 2 and 4 tenants.
* ``refusals``: the message of each placement the simulator refuses.

Results are float sums, and ``sum()`` rounds differently across Python
minor versions (it is compensated from 3.12), so numbers compare exactly
only on the recording version and to 1e-12 relative elsewhere. Labels
and messages compare exactly everywhere.

After an intended pricing change, re-record with::

    PYTHONPATH=src python tests/test_placement_pins.py --record
"""

import dataclasses
import json
import pathlib
import sys

import pytest

from repro.engine.backend import NumaBackend, TensorParallelBackend
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.numa.modes import QUAD_CACHE, SNC_FLAT
from repro.perfcounters.collector import CounterModel
from repro.serving.multitenancy import MultiTenantSimulator

PINS_PATH = pathlib.Path(__file__).parent / "data" / "placement_pins.json"

CORES = {"spr": (None, 12, 24, 48, 96), "icl": (None, 16, 32, 64)}
PLACEMENTS = {
    "default": None,
    "quad_cache": NumaBackend(numa=QUAD_CACHE),
    "snc_flat": NumaBackend(numa=SNC_FLAT),
    "snc_flat-aware": NumaBackend(numa=SNC_FLAT, numa_aware=True),
    "hot0.8": NumaBackend(hot_fraction=0.8),
}
#: (model, request): a small decode-bound run and one that spills HBM.
RUNS = {"llama2-7b": InferenceRequest(batch_size=8),
        "opt-66b": InferenceRequest(batch_size=1, input_len=256,
                                    output_len=16)}
TENANTS = (1, 2, 4)
PHASE_FIELDS = ("time_s", "flops", "weight_bytes", "activation_bytes",
                "kv_bytes", "compute_busy_s", "memory_busy_s")


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def build(platform, placement, cores):
    """``(simulator, counter model)`` for one placement cell."""
    if placement is None:
        backend = None if cores is None else NumaBackend(cores=cores)
    else:
        backend = dataclasses.replace(placement, cores=cores)
    return (InferenceSimulator(platform, backend),
            CounterModel(platform, backend))


def build_tp(platform, cores):
    """TP2 over one socket's *cores* (``None``: the whole socket)."""
    backend = (TensorParallelBackend() if cores is None
               else TensorParallelBackend(inner=NumaBackend(cores=cores)))
    return (InferenceSimulator(platform, backend),
            CounterModel(platform, backend))


def refusals() -> dict:
    """``{name: thunk}`` for each placement the simulator refuses."""
    spr, h100 = get_platform("spr"), get_platform("h100")
    return {
        "cores-on-gpu": lambda: InferenceSimulator(
            h100, NumaBackend(cores=24)),
        "numa-on-gpu": lambda: InferenceSimulator(
            h100, NumaBackend(numa=SNC_FLAT)),
        "tp-over-spanning-cores": lambda: InferenceSimulator(
            spr, NumaBackend(cores=96, inner=TensorParallelBackend())),
        "cores-above-total": lambda: InferenceSimulator(
            spr, NumaBackend(cores=128)),
    }


def result_values(result) -> dict:
    values = {"config_label": result.config_label, "ttft_s": result.ttft_s,
              "tpot_s": result.tpot_s, "e2e_s": result.e2e_s}
    for phase in (result.prefill, result.decode):
        for field in PHASE_FIELDS:
            values[f"{phase.name}.{field}"] = getattr(phase, field)
    return values


def price(simulator, counters) -> dict:
    """Every pinned value of one cell's runs, as JSON-ready data."""
    out = {}
    for name, request in RUNS.items():
        result = simulator.run(get_model(name), request)
        values = result_values(result)
        values["memory_capacity"] = simulator.memory_capacity()
        for field, value in dataclasses.asdict(
                counters.from_result(result)).items():
            values[f"counters.{field}"] = value
        out[name] = values
    return out


def cells() -> dict:
    """``{"platform/placement/cores": (simulator, counter model)}``."""
    table = {}
    for key, core_counts in CORES.items():
        platform = get_platform(key)
        for cores in core_counts:
            tag = "socket" if cores is None else f"{cores}c"
            for name, placement in PLACEMENTS.items():
                table[f"{key}/{name}/{tag}"] = build(platform, placement,
                                                     cores)
            if cores is None or cores * 2 <= platform.topology.total_cores:
                table[f"{key}/tp2/{tag}"] = build_tp(platform, cores)
    return table


def tenancy() -> dict:
    model = get_model("llama2-7b")
    request = InferenceRequest(batch_size=4, input_len=128, output_len=8)
    out = {}
    for key in CORES:
        for tenants in TENANTS:
            slowdown = MultiTenantSimulator(get_platform(key),
                                            tenants).evaluate(model, request)
            out[f"{key}/{tenants}"] = {
                f"{leg}.{field}": value
                for leg in ("solo", "shared")
                for field, value in result_values(
                    getattr(slowdown, leg)).items()}
    return out


def refusal_messages() -> dict:
    messages = {}
    for name, thunk in refusals().items():
        with pytest.raises(ValueError) as error:
            thunk()
        messages[name] = str(error.value)
    return messages


CELLS = cells()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def compare(got: dict, want: dict, exact: bool) -> None:
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        if exact or isinstance(value, str):
            assert got[key] == value, key
        else:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_pins_cover_every_cell(pins):
    assert sorted(pins["runs"]) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_runs_match(pins, cell):
    got = price(*CELLS[cell])
    want = pins["runs"][cell]
    assert sorted(got) == sorted(want)
    exact = pins["python"] == python_version()
    for run, values in want.items():
        compare(got[run], values, exact)


def test_tenancy_matches(pins):
    got, want = tenancy(), pins["tenancy"]
    assert sorted(got) == sorted(want)
    exact = pins["python"] == python_version()
    for key, values in want.items():
        compare(got[key], values, exact)


def test_refusal_messages_match(pins):
    assert refusal_messages() == pins["refusals"]


def record() -> None:
    data = {"python": python_version(),
            "runs": {cell: price(*pair) for cell, pair in CELLS.items()},
            "tenancy": tenancy(),
            "refusals": refusal_messages()}
    PINS_PATH.write_text(json.dumps(
        data, indent=None, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
