"""Static and chunked batching pinned to the loops they used to run on.

Static and chunked-prefill batching once had their own scheduler loops;
both now run as disciplines of :class:`repro.cluster.node.ReplicaNode`.
``data/batching_pins.json`` holds the reports the standalone loops
produced, recorded before they were deleted: every record's
``start_s``/``first_token_s``/``finish_s`` in completion order, the
makespan, the generated-token count, and the inter-token gaps as a
count plus sums over consecutive blocks of 32 (``GAP_BLOCK``). Floats
were stored to 12 significant digits; the node must match them to 1e-9
relative.

The streams cover the ``ext_serving`` arrivals at a light and a heavy
rate, the ``ext_chunked`` arrivals, and a burst of 20 requests (12 at
t=0) against ``max_batch=8`` with single-token outputs mixed in.
"""

import json
import pathlib

import pytest

from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import ArrivingRequest, poisson_arrivals
from repro.serving.scheduler import BatchingSimulator
from repro.workloads.generator import chatbot_workload, translation_workload

PINS = json.loads((pathlib.Path(__file__).parent / "data"
                   / "batching_pins.json").read_text())
REL = 1e-9
GAP_BLOCK = 32


def burst():
    outputs = (1, 2, 5, 40, 17, 1, 64, 3)
    return [ArrivingRequest(i, 0.0 if i < 12 else 0.25 * (i - 11),
                            32 + (i * 97) % 480, outputs[i % 8])
            for i in range(20)]


STREAMS = {
    "serving-0.5": lambda: poisson_arrivals(0.5, 24, chatbot_workload(),
                                            seed=11),
    "serving-4.0": lambda: poisson_arrivals(4.0, 24, chatbot_workload(),
                                            seed=11),
    "chunked": lambda: poisson_arrivals(1.0, 20, translation_workload(),
                                        seed=4),
    "burst": burst,
}
RUNS = {
    "static": lambda sim, arrivals: sim.run_static(arrivals),
    "chunked-64": lambda sim, arrivals: sim.run_chunked(arrivals, 64),
    "chunked-128": lambda sim, arrivals: sim.run_chunked(arrivals, 128),
    "chunked-256": lambda sim, arrivals: sim.run_chunked(arrivals, 256),
}


@pytest.fixture(scope="module")
def simulator():
    return BatchingSimulator(get_platform("spr"), get_model("llama2-7b"),
                             max_batch=8)


def test_pins_cover_every_stream_and_run():
    assert sorted(PINS) == sorted(f"{stream}/{run}" for stream in STREAMS
                                  for run in RUNS)


@pytest.mark.parametrize("key", sorted(PINS))
def test_report_matches_pin(simulator, key):
    stream, run = key.split("/")
    report = RUNS[run](simulator, STREAMS[stream]())
    pin = PINS[key]
    approx = lambda value: pytest.approx(value, rel=REL, abs=0.0)
    assert report.generated_tokens == pin["generated_tokens"]
    assert [r.request_id for r in report.completed] == \
        [record[0] for record in pin["records"]]
    for record, (_, start, first, finish) in zip(report.completed,
                                                 pin["records"]):
        assert record.start_s == approx(start)
        assert record.first_token_s == approx(first)
        assert record.finish_s == approx(finish)
    assert report.makespan_s == approx(pin["makespan_s"])
    gaps = report.decode_gaps
    assert len(gaps) == pin["gap_count"]
    assert [sum(gaps[i:i + GAP_BLOCK])
            for i in range(0, len(gaps), GAP_BLOCK)] == \
        approx(pin["gap_block_sums"])
