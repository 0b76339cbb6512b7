"""Arrival streams pinned bit for bit.

``data/stream_pins.json`` holds one SHA-256 per generated stream, taken
over its ``dataclasses.astuple`` rows: every request id, arrival stamp,
shape and tenant tag of Poisson, bursty, class-mix and tenant streams
(full, sharded, duration-bounded and door-throttled) and of
``generate_requests``. The shape ranges include a width-1 range, a
power-of-two width and odd widths, so every branch of the integer
sampler's rejection loop is exercised.

Stream generation is integer draws plus single float expressions on
one ``random.Random``, so the pins compare exactly on every Python
version.

After an intended change to what a stream draws, re-record with::

    PYTHONPATH=src python tests/test_stream_pins.py --record
"""

import dataclasses
import enum
import hashlib
import json
import pathlib
import sys

import pytest

from repro.serving.arrivals import iter_bursty_arrivals, iter_poisson_arrivals
from repro.workloads.classes import ClassMixStream
from repro.workloads.generator import WorkloadSpec, generate_requests
from repro.workloads.tenancy import TenantStream, TenantWorkloadSpec
from repro.workloads.throttling import ThrottleConfig

PINS_PATH = pathlib.Path(__file__).parent / "data" / "stream_pins.json"

SEEDS = (0, 11)
COUNT = 400

# Widths 1 and 32 (a power of two).
NARROW = WorkloadSpec("narrow", input_len_range=(8, 8),
                      output_len_range=(16, 47), batch_size=2,
                      priority_metric="ttft_s")
# Odd widths: 225 and 97.
WIDE = WorkloadSpec("wide", input_len_range=(32, 256),
                    output_len_range=(4, 100), batch_size=1,
                    priority_metric="tpot_s")
TENANTS = TenantWorkloadSpec(users=9, apps=3, zipf_s=1.2,
                             input_len_range=(8, 8),
                             output_len_range=(16, 47),
                             interaction_stages=(1, 3))
TENANTS_WIDE = TenantWorkloadSpec(users=5, input_len_range=(32, 256),
                                  output_len_range=(4, 100),
                                  interaction_stages=(2, 2))
THROTTLE = ThrottleConfig(window_s=20.0, max_user_requests=6,
                          max_app_requests=40)


def _streams(seed: int) -> dict:
    """``{name: iterable of dataclass records}`` for one seed."""
    return {
        "poisson/default": iter_poisson_arrivals(3.0, count=COUNT,
                                                 seed=seed),
        "poisson/narrow": iter_poisson_arrivals(3.0, count=COUNT,
                                                spec=NARROW, seed=seed),
        "poisson/wide/duration": iter_poisson_arrivals(
            5.0, duration_s=60.0, spec=WIDE, seed=seed),
        "poisson/wide/shard1of3": iter_poisson_arrivals(
            5.0, count=COUNT, spec=WIDE, seed=seed, shard=1, num_shards=3),
        "bursty/narrow": iter_bursty_arrivals(
            1.0, 12.0, count=COUNT, spec=NARROW, burst_s=5.0,
            period_s=30.0, seed=seed),
        "bursty/wide/shard0of2": iter_bursty_arrivals(
            1.0, 12.0, count=COUNT, spec=WIDE, burst_s=5.0,
            period_s=30.0, seed=seed, shard=0, num_shards=2),
        "classmix/full": ClassMixStream(4.0, count=COUNT, seed=seed).full(),
        "classmix/shard1of3": ClassMixStream(4.0, count=COUNT,
                                             seed=seed).shard(1, 3),
        "tenant/full": TenantStream(TENANTS, 4.0, count=COUNT,
                                    seed=seed).full(),
        "tenant/shard1of4": TenantStream(TENANTS, 4.0, count=COUNT,
                                         seed=seed).shard(1, 4),
        "tenant/wide/duration": TenantStream(TENANTS_WIDE, 4.0,
                                             duration_s=50.0,
                                             seed=seed).full(),
        "tenant/throttled": TenantStream(TENANTS, 4.0, count=COUNT,
                                         seed=seed,
                                         throttle=THROTTLE).full(),
        "requests/narrow": generate_requests(NARROW, 60, seed=seed),
        "requests/wide": generate_requests(WIDE, 60, seed=seed),
    }


def _plain(value):
    return value.name if isinstance(value, enum.Enum) else value


def digest(records) -> dict:
    """Row count and SHA-256 over the JSON of every ``astuple`` row."""
    rows = [[_plain(value) for value in dataclasses.astuple(record)]
            for record in records]
    text = json.dumps(rows, separators=(",", ":"))
    return {"rows": len(rows),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def cases() -> list:
    return [(seed, name) for seed in SEEDS for name in _streams(seed)]


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_stream(pins):
    assert sorted(pins) == sorted(f"{seed}/{name}" for seed, name in cases())


@pytest.mark.parametrize("seed,name", cases())
def test_stream_is_bit_identical(pins, seed, name):
    assert digest(_streams(seed)[name]) == pins[f"{seed}/{name}"]


def test_ranges_cover_every_width_class():
    widths = {hi - lo + 1 for spec in (NARROW, WIDE, TENANTS, TENANTS_WIDE)
              for lo, hi in (spec.input_len_range, spec.output_len_range)}
    assert 1 in widths
    assert any(w > 1 and w & (w - 1) == 0 for w in widths)
    assert any(w % 2 for w in widths if w > 1)


def record() -> None:
    data = {f"{seed}/{name}": digest(records)
            for seed in SEEDS for name, records in _streams(seed).items()}
    PINS_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
