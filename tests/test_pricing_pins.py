"""Operator pricing pinned bit for bit.

``data/pricing_pins.json`` holds exact pricing outputs over platforms
(SPR, ICL, A100) x backends (BF16, weight-only INT8, TP2 where the
platform takes it) x models (LLaMA2-7B, OPT-13B), each priced by the
executor a serving replica of that model uses (``max_batch=8``):

* every field of every ``time_op`` timing over two prefill graphs and two
  decode graphs, compared with ``==``;
* the ``prefill_pass`` triples of the same prefill shapes and the
  ``time_decode_range`` time/compute/memory sums of one decode range.

A timing field is one float expression, so it must not move by a bit
on any interpreter. The pass and range values are float sums, and
``sum()`` rounds differently across Python minor versions (it is
compensated from 3.12), so those compare exactly only on the recording
version and to 1e-12 relative elsewhere.

After an intended pricing change, re-record with::

    PYTHONPATH=src python tests/test_pricing_pins.py --record
"""

import json
import pathlib
import sys

import pytest

from repro.engine.backend import parse_backend
from repro.engine.inference import InferenceSimulator, MemoryCapacityError
from repro.hardware.registry import get_platform
from repro.models.registry import get_model

PINS_PATH = pathlib.Path(__file__).parent / "data" / "pricing_pins.json"

PLATFORMS = ("spr", "icl", "a100")
BACKENDS = ("bf16", "int8", "tp2")
MODELS = ("llama2-7b", "opt-13b")
PREFILL_SHAPES = ((1, 128), (4, 1000))   # (batch, input_len)
DECODE_SHAPES = ((4, 129), (4, 1537))    # (batch, kv_len)
DECODE_RANGE = (4, 128, 640)             # (batch, kv_start, kv_end)
TIMING_FIELDS = ("time_s", "compute_s", "memory_s", "overhead_s",
                 "engine_name", "efficiency", "memory_bound")


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def executors():
    """``{"platform/backend/model": (executor, model)}`` for valid cells."""
    cells = {}
    for platform in PLATFORMS:
        for spec in BACKENDS:
            for name in MODELS:
                model = get_model(name)
                try:
                    sim = InferenceSimulator(get_platform(platform),
                                             parse_backend(spec))
                    executor = sim.replica_executor(model, 8)
                except (ValueError, MemoryCapacityError):
                    continue
                cells[f"{platform}/{spec}/{name}"] = (executor, model)
    return cells


def price(executor, model) -> dict:
    """Every pinned value for one executor, as JSON-ready data."""
    backend = executor.backend

    def fields(timings):
        return [[t.op.name] + [getattr(t, f) for f in TIMING_FIELDS]
                for t in timings]

    graphs = {}
    for batch, input_len in PREFILL_SHAPES:
        graphs[f"prefill/{batch}x{input_len}"] = fields(executor.time_ops(
            backend.prefill_ops(model, batch, input_len)))
    for batch, kv_len in DECODE_SHAPES:
        graphs[f"decode/{batch}@{kv_len}"] = fields(executor.time_ops(
            backend.decode_ops(model, batch, kv_len)))
    sums = {f"prefill_pass/{batch}x{input_len}":
            list(executor.prefill_pass(model, batch, input_len))
            for batch, input_len in PREFILL_SHAPES}
    batch, kv_start, kv_end = DECODE_RANGE
    decode = executor.time_decode_range(model, batch, kv_start, kv_end)
    sums[f"decode_range/{batch}@{kv_start}:{kv_end}"] = [
        decode.time_s, decode.compute_s, decode.memory_s]
    return {"ops": graphs, "sums": sums}


CELLS = executors()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_valid_cell(pins):
    assert sorted(pins["cells"]) == sorted(CELLS)
    # TP shards across CPU sockets, so only the GPU cells drop out.
    assert len(CELLS) == 16


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_op_timings_are_bit_identical(pins, cell):
    got = price(*CELLS[cell])["ops"]
    want = pins["cells"][cell]["ops"]
    assert sorted(got) == sorted(want)
    for graph, rows in want.items():
        assert got[graph] == rows, graph


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_pass_and_range_sums_match(pins, cell):
    got = price(*CELLS[cell])["sums"]
    want = pins["cells"][cell]["sums"]
    assert sorted(got) == sorted(want)
    exact = pins["python"] == python_version()
    for key, values in want.items():
        if exact:
            assert got[key] == values, key
        else:
            assert got[key] == pytest.approx(values, rel=1e-12, abs=0.0), key


def record() -> None:
    data = {cell: price(executor, model)
            for cell, (executor, model) in CELLS.items()}
    PINS_PATH.write_text(json.dumps(
        {"python": python_version(), "cells": data},
        indent=None, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
