"""Tenant workloads: Zipf demand, interaction chains, door throttling.

The tenancy generator must honor the same contract as the anonymous
arrival generators — time-ordered, deterministic, and splittable with a
bit-equal shard union — while adding tenant identity and multi-stage
interaction structure. The door (sliding-window throttling) is a pure
function of the stream, so its decisions must be identical no matter
how many shards evaluate them.
"""

import pytest

from repro.workloads import (
    TenantRequest,
    TenantStream,
    TenantWorkloadSpec,
    ThrottleConfig,
    iter_tenant_arrivals,
    throttle_decisions,
    zipf_shares,
)
from repro.workloads.throttling import (
    ABORTED_INTERACTION,
    ADMITTED,
    APP_RATE,
    USER_RATE,
)


def _spec(**overrides) -> TenantWorkloadSpec:
    defaults = dict(users=6, apps=2, zipf_s=1.2,
                    input_len_range=(16, 64), output_len_range=(16, 48))
    defaults.update(overrides)
    return TenantWorkloadSpec(**defaults)


class TestZipfShares:
    def test_normalized_and_decreasing(self):
        shares = zipf_shares(8, 1.1)
        assert sum(shares) == pytest.approx(1.0)
        assert shares == sorted(shares, reverse=True)

    def test_zero_exponent_is_uniform(self):
        assert zipf_shares(4, 0.0) == pytest.approx([0.25] * 4)

    def test_single_tenant(self):
        assert zipf_shares(1) == [1.0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_shares(0)
        with pytest.raises(ValueError):
            zipf_shares(4, -1.0)


class TestTenantArrivals:
    def test_time_ordered_sequential_ids(self):
        requests = list(iter_tenant_arrivals(_spec(), 2.0, count=150,
                                             seed=5))
        assert [r.request_id for r in requests] == list(range(150))
        stamps = [r.arrival_s for r in requests]
        assert stamps == sorted(stamps)

    def test_deterministic(self):
        first = list(iter_tenant_arrivals(_spec(), 2.0, count=80, seed=9))
        second = list(iter_tenant_arrivals(_spec(), 2.0, count=80, seed=9))
        assert first == second

    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_shard_union_bit_equal(self, num_shards):
        full = list(iter_tenant_arrivals(_spec(), 2.0, count=120, seed=5))
        shards = [list(iter_tenant_arrivals(_spec(), 2.0, count=120,
                                            seed=5, shard=i,
                                            num_shards=num_shards))
                  for i in range(num_shards)]
        union = sorted((r for part in shards for r in part),
                       key=lambda r: r.request_id)
        assert union == full
        for index, part in enumerate(shards):
            assert all(r.request_id % num_shards == index for r in part)

    def test_interaction_structure(self):
        requests = list(iter_tenant_arrivals(
            _spec(interaction_stages=(2, 3)), 2.0, count=150, seed=1))
        chains = {}
        for request in requests:
            chains.setdefault(request.interaction_id, []).append(request)
        multi = [c for c in chains.values() if len(c) > 1]
        assert multi, "stage range (2,3) must produce chained interactions"
        for chain in chains.values():
            chain.sort(key=lambda r: r.stage)
            # One user, one app, one declared length per interaction.
            assert len({r.user_id for r in chain}) == 1
            assert len({r.app_id for r in chain}) == 1
            assert len({r.stages for r in chain}) == 1
            assert [r.stage for r in chain] == list(range(len(chain)))
            stamps = [r.arrival_s for r in chain]
            assert stamps == sorted(stamps)
            # Follow-up gap covers at least the decode proxy.
            for prev, cur in zip(chain, chain[1:]):
                gap = cur.arrival_s - prev.arrival_s
                assert gap >= prev.output_len * 0.05 - 1e-12

    def test_duration_bound_truncates(self):
        requests = list(iter_tenant_arrivals(_spec(), 4.0,
                                             duration_s=20.0, seed=3))
        assert requests
        assert all(r.arrival_s <= 20.0 for r in requests)

    def test_zipf_skews_demand(self):
        requests = list(iter_tenant_arrivals(_spec(zipf_s=1.6), 2.0,
                                             count=400, seed=7))
        per_user = {}
        for request in requests:
            per_user[request.user_id] = per_user.get(request.user_id, 0) + 1
        # The rank-0 user must dominate the tail user by a wide margin.
        assert per_user.get(0, 0) > 4 * per_user.get(5, 1)

    def test_requires_a_bound(self):
        with pytest.raises(ValueError, match="bound"):
            iter_tenant_arrivals(_spec(), 2.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TenantWorkloadSpec(users=0)
        with pytest.raises(ValueError):
            _spec(interaction_stages=(0, 2))
        with pytest.raises(ValueError):
            _spec(interaction_stages=(3, 2))
        with pytest.raises(ValueError):
            _spec(zipf_s=-0.5)

    def test_plain_request_defaults(self):
        request = TenantRequest(request_id=0, arrival_s=0.0,
                                input_len=8, output_len=8)
        assert request.user_id == 0
        assert request.stages == 1


def _chain(interaction_id, user, times, output_len=10, app=0):
    """A hand-built interaction chain for door unit tests."""
    stages = len(times)
    return [TenantRequest(request_id=-1, arrival_s=t, input_len=8,
                          output_len=output_len, user_id=user, app_id=app,
                          interaction_id=interaction_id, stage=k,
                          stages=stages)
            for k, t in enumerate(times)]


def _renumber(requests):
    requests.sort(key=lambda r: r.arrival_s)
    import dataclasses
    return [dataclasses.replace(r, request_id=i)
            for i, r in enumerate(requests)]


class TestThrottling:
    def test_open_door_admits_everything(self):
        stream = _renumber(_chain(0, 0, [0.0, 1.0, 2.0]))
        decisions = list(throttle_decisions(stream, None))
        assert all(d.admitted for d in decisions)
        assert all(d.reason == ADMITTED for d in decisions)

    def test_user_window_limits(self):
        stream = _renumber([_chain(i, 0, [float(i)])[0] for i in range(6)])
        config = ThrottleConfig(window_s=100.0, max_user_requests=4)
        decisions = list(throttle_decisions(stream, config))
        assert [d.admitted for d in decisions] == [True] * 4 + [False] * 2
        assert decisions[4].reason == USER_RATE

    def test_window_slides(self):
        stream = _renumber([_chain(i, 0, [t])[0]
                            for i, t in enumerate([0.0, 1.0, 50.0])])
        config = ThrottleConfig(window_s=10.0, max_user_requests=2)
        decisions = list(throttle_decisions(stream, config))
        # Third arrival lands after the first two left the window.
        assert [d.admitted for d in decisions] == [True, True, True]

    def test_app_window_limits(self):
        stream = _renumber([_chain(i, i, [float(i)], app=0)[0]
                            for i in range(4)])
        config = ThrottleConfig(window_s=100.0, max_app_requests=2)
        decisions = list(throttle_decisions(stream, config))
        assert [d.admitted for d in decisions] == [True, True, False, False]
        assert decisions[2].reason == APP_RATE

    def test_refusals_do_not_consume_budget(self):
        stream = _renumber([_chain(i, 0, [float(i) / 10])[0]
                            for i in range(10)])
        config = ThrottleConfig(window_s=100.0, max_user_requests=3)
        decisions = list(throttle_decisions(stream, config))
        assert sum(d.admitted for d in decisions) == 3

    def test_interaction_policy_never_aborts(self):
        # User 0 floods; an interaction admitted at stage 0 keeps its
        # later stages even though the window is exhausted by then.
        flood = [_chain(100 + i, 0, [0.1 * i])[0] for i in range(8)]
        chain = _chain(0, 0, [0.0, 5.0, 9.0])
        stream = _renumber(flood + chain)
        config = ThrottleConfig(window_s=100.0, max_user_requests=2,
                                policy="interaction")
        decisions = {d.request.interaction_id: []
                     for d in throttle_decisions(stream, config)}
        for d in throttle_decisions(stream, config):
            decisions[d.request.interaction_id].append(d)
        verdicts = [d.admitted for d in
                    sorted(decisions[0], key=lambda d: d.request.stage)]
        # All-or-nothing: every stage shares stage 0's verdict.
        assert len(set(verdicts)) == 1
        assert all(d.wasted_tokens == 0
                   for ds in decisions.values() for d in ds)

    def test_request_policy_aborts_and_charges_waste(self):
        flood = [_chain(100 + i, 1, [1.0 + 0.1 * i])[0] for i in range(8)]
        chain = _chain(0, 1, [0.0, 5.0, 9.0], output_len=25)
        stream = _renumber(chain + flood)
        config = ThrottleConfig(window_s=100.0, max_user_requests=3,
                                policy="request")
        decisions = [d for d in throttle_decisions(stream, config)
                     if d.request.interaction_id == 0]
        decisions.sort(key=lambda d: d.request.stage)
        assert decisions[0].admitted          # stage 0 got in early
        assert not decisions[1].admitted      # mid-chain refusal
        assert decisions[1].reason == ABORTED_INTERACTION
        # The abort retroactively wastes stage 0's output tokens...
        assert decisions[1].wasted_tokens == 25
        # ...and drops the rest of the chain without further waste.
        assert not decisions[2].admitted
        assert decisions[2].reason == ABORTED_INTERACTION
        assert decisions[2].wasted_tokens == 0

    def test_admitted_requests_helper(self):
        stream = _renumber([_chain(i, 0, [float(i)])[0] for i in range(5)])
        config = ThrottleConfig(window_s=100.0, max_user_requests=2)
        admitted = [decision.request
                    for decision in throttle_decisions(stream, config)
                    if decision.admitted]
        assert len(admitted) == 2
        assert [r.request_id for r in admitted] == [0, 1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThrottleConfig(window_s=0.0)
        with pytest.raises(ValueError):
            ThrottleConfig(max_user_requests=0)
        with pytest.raises(ValueError):
            ThrottleConfig(policy="sometimes")


class TestTenantStream:
    def test_full_equals_shard_union(self):
        stream = TenantStream(spec=_spec(), rate_per_s=3.0, count=100,
                              seed=2)
        full = list(stream.full())
        for n in (2, 3):
            union = sorted((r for i in range(n) for r in stream.shard(i, n)),
                           key=lambda r: r.request_id)
            assert union == full

    def test_throttle_decisions_shard_invariant(self):
        stream = TenantStream(
            spec=_spec(), rate_per_s=6.0, count=150, seed=2,
            throttle=ThrottleConfig(window_s=10.0, max_user_requests=4))
        full = list(stream.full())
        assert 0 < len(full) < 150, "the door must actually throttle"
        for n in (2, 4):
            union = sorted((r for i in range(n) for r in stream.shard(i, n)),
                           key=lambda r: r.request_id)
            assert union == full

    def test_admitted_keep_stream_position_ids(self):
        stream = TenantStream(
            spec=_spec(), rate_per_s=6.0, count=100, seed=2,
            throttle=ThrottleConfig(window_s=10.0, max_user_requests=3))
        ids = [r.request_id for r in stream.full()]
        # Ids are the full-stream positions (with throttled holes), not
        # a renumbering — the property the sharded merge keys on.
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert ids != list(range(len(ids)))

    def test_decisions_cover_every_arrival(self):
        stream = TenantStream(
            spec=_spec(), rate_per_s=6.0, count=90, seed=2,
            throttle=ThrottleConfig(window_s=10.0, max_user_requests=3))
        decisions = list(stream.decisions())
        assert len(decisions) == 90
        admitted = [d.request for d in decisions if d.admitted]
        assert admitted == list(stream.full())

    def test_exposes_spec_ranges_for_warmup(self):
        stream = TenantStream(spec=_spec(), rate_per_s=1.0, count=10)
        assert stream.spec.input_len_range == (16, 64)
        assert stream.spec.output_len_range == (16, 48)
