"""The integer sampler and the arrival-record contract.

``int_sampler`` must replay ``random.Random.randint`` draw for draw and
leave the generator in the same state, and the hand-written
constructors of ``ArrivingRequest`` / ``TenantRequest`` must give the
same frozen, slotted dataclass records the generated ones did.
"""

import dataclasses
import inspect
import pickle
import random

import pytest

from repro.serving.arrivals import ArrivingRequest, int_sampler
from repro.workloads.tenancy import TenantRequest

WIDTHS = (1, 2, 3, 97, 128, 129, 2 ** 31 + 1)


class TestIntSampler:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("lo", (0, 8, -5))
    def test_matches_randint_draw_for_draw(self, width, lo):
        hi = lo + width - 1
        want_rng, got_rng = random.Random(42), random.Random(42)
        draw = int_sampler(got_rng, lo, hi)
        want = [want_rng.randint(lo, hi) for _ in range(500)]
        got = [draw() for _ in range(500)]
        assert got == want
        assert got_rng.getstate() == want_rng.getstate()

    def test_interleaves_with_other_draws(self):
        want_rng, got_rng = random.Random(3), random.Random(3)
        small, large = int_sampler(got_rng, 8, 8), int_sampler(got_rng, 1, 97)
        for _ in range(200):
            assert small() == want_rng.randint(8, 8)
            assert got_rng.random() == want_rng.random()
            assert large() == want_rng.randint(1, 97)
        assert got_rng.getstate() == want_rng.getstate()

    def test_rejects_an_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            int_sampler(random.Random(0), 5, 4)


ARRIVING = ArrivingRequest(3, 1.25, 64, 16)
TENANT = TenantRequest(3, 1.25, 64, 16, 2, 1, 7, 1, 3)
KEYWORDS = {
    ArrivingRequest: dict(request_id=3, arrival_s=1.25, input_len=64,
                          output_len=16),
    TenantRequest: dict(request_id=3, arrival_s=1.25, input_len=64,
                        output_len=16, user_id=2, app_id=1,
                        interaction_id=7, stage=1, stages=3),
}


@pytest.mark.parametrize("record", (ARRIVING, TENANT),
                         ids=("arriving", "tenant"))
class TestRecordContract:
    def test_frozen_and_slotted(self, record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.input_len = 1
        assert not hasattr(record, "__dict__")

    def test_positional_and_keyword_construction_agree(self, record):
        by_keyword = type(record)(**KEYWORDS[type(record)])
        assert by_keyword == record
        assert hash(by_keyword) == hash(record)
        assert dataclasses.astuple(record) == tuple(
            KEYWORDS[type(record)].values())

    def test_constructor_mirrors_the_fields(self, record):
        """Same names, order and defaults as the fields it stores."""
        params = list(inspect.signature(type(record)).parameters.values())
        fields = dataclasses.fields(record)
        assert [p.name for p in params] == [f.name for f in fields]
        for param, field in zip(params, fields):
            want = (inspect.Parameter.empty
                    if field.default is dataclasses.MISSING
                    else field.default)
            assert param.default == want, field.name

    def test_pickle_round_trips(self, record):
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and type(clone) is type(record)

    def test_replace(self, record):
        moved = dataclasses.replace(record, arrival_s=9.5)
        assert type(moved) is type(record)
        assert moved.arrival_s == 9.5
        assert dataclasses.replace(moved, arrival_s=1.25) == record

    def test_repr_names_every_field(self, record):
        assert repr(record) == "{}({})".format(
            type(record).__name__,
            ", ".join(f"{k}={v!r}" for k, v in KEYWORDS[type(record)].items()))


class TestTenantRequest:
    def test_defaults_read_as_anonymous_single_stage(self):
        request = TenantRequest(0, 0.5, 32, 8)
        assert (request.user_id, request.app_id, request.interaction_id,
                request.stage, request.stages) == (0, 0, -1, 0, 1)

    def test_is_an_arriving_request_with_its_fields_first(self):
        assert isinstance(TENANT, ArrivingRequest)
        names = [field.name for field in dataclasses.fields(TENANT)]
        assert names[:4] == [field.name
                             for field in dataclasses.fields(ARRIVING)]

    def test_differs_from_a_base_record_with_the_same_shape(self):
        assert TenantRequest(3, 1.25, 64, 16) != ARRIVING
