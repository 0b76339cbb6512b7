"""Per-tenant fairness accounting: Jain index and report edge cases.

Pins the `utils.stats` never-empty convention for the new fairness
figures: a single tenant is perfectly fair (1.0), an empty allocation
raises a descriptive error, and a run that served nothing refuses to
produce statistics rather than guessing. The report builder is also
exercised end-to-end against a real cluster run.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    ReplicaSpec,
    RoundRobinRouter,
    fairness_report,
)
from repro.cluster.fairness import _served_fraction
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import CompletedRequest
from repro.serving.slo import SLO
from repro.utils.stats import jain_index
from repro.workloads import (
    TenantRequest,
    TenantStream,
    TenantWorkloadSpec,
    ThrottleConfig,
)
from repro.workloads.throttling import ThrottleDecision


def _tenant(report, user_id):
    return next(t for t in report.tenants if t.user_id == user_id)


class TestJainIndex:
    def test_single_tenant_is_fair(self):
        assert jain_index([42.0]) == 1.0

    def test_equal_allocations_are_fair(self):
        assert jain_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_one_tenant_takes_everything(self):
        assert jain_index([100.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_equal(self):
        # Everyone received nothing: equal, not 0/0.
        assert jain_index([0.0, 0.0, 0.0]) == 1.0

    def test_empty_raises_descriptive(self):
        with pytest.raises(ValueError, match="empty sequence is undefined"):
            jain_index([])

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            jain_index([1.0, -2.0])

    def test_bounded_by_reciprocal_n(self):
        values = [1.0, 3.0, 7.0, 2.0, 9.0]
        index = jain_index(values)
        assert 1.0 / len(values) <= index <= 1.0


def _request(request_id, user, arrival=0.0, input_len=10, output_len=20):
    return TenantRequest(request_id=request_id, arrival_s=arrival,
                         input_len=input_len, output_len=output_len,
                         user_id=user)


def _decision(request, admitted=True, wasted=0):
    reason = "admitted" if admitted else "user_rate"
    return ThrottleDecision(request, admitted, reason,
                            wasted_tokens=wasted)


def _record(request_id, arrival=0.0, start=0.1, first=0.2, finish=1.0):
    return CompletedRequest(request_id=request_id, arrival_s=arrival,
                            start_s=start, first_token_s=first,
                            finish_s=finish)


class TestFairnessReportEdgeCases:
    def test_single_tenant_jain_is_one(self):
        decisions = [_decision(_request(i, user=3, arrival=float(i)))
                     for i in range(3)]
        completed = [_record(i, arrival=float(i), start=float(i) + 0.1,
                             first=float(i) + 0.2, finish=float(i) + 0.5)
                     for i in range(3)]
        report = fairness_report(decisions, completed)
        assert report.jain_index == 1.0
        assert len(report.tenants) == 1
        assert report.tenants[0].user_id == 3
        assert report.tenants[0].completed == 3

    def test_zero_completed_raises_descriptive(self):
        decisions = [_decision(_request(0, user=1))]
        with pytest.raises(ValueError,
                           match="zero completed requests is undefined"):
            fairness_report(decisions, [])

    def test_empty_decisions_raise_descriptive(self):
        with pytest.raises(ValueError, match="empty decision stream"):
            fairness_report([], [_record(0)])

    def test_throttled_only_tenant(self):
        decisions = [
            _decision(_request(0, user=1)),
            _decision(_request(1, user=2, arrival=0.5), admitted=False),
            _decision(_request(2, user=2, arrival=0.6), admitted=False),
        ]
        report = fairness_report(decisions, [_record(0, finish=0.8)])
        starved = _tenant(report, 2)
        assert starved.arrived == 2
        assert starved.admitted == 0
        assert starved.throttled == 2
        assert starved.completed == 0
        assert starved.served_tokens == 0.0
        assert starved.attainment == 0.0
        assert starved.mean_ttft_s is None
        assert report.throttle_rate == pytest.approx(2 / 3)
        # One tenant got everything served: Jain bottoms out at 1/n.
        assert report.jain_index == pytest.approx(0.5)

    def test_arrived_is_admitted_plus_throttled(self):
        decisions = [
            _decision(_request(0, user=0)),
            _decision(_request(1, user=0, arrival=0.1), admitted=False),
            _decision(_request(2, user=0, arrival=0.2)),
        ]
        completed = [_record(0), _record(2)]
        report = fairness_report(decisions, completed)
        tenant = _tenant(report, 0)
        assert tenant.arrived == tenant.admitted + tenant.throttled == 3

    def test_abandonment_counts_waste(self):
        slow = _record(0, start=0.1, first=30.0, finish=31.0)
        decisions = [_decision(_request(0, user=0, output_len=40)),
                     _decision(_request(1, user=1, arrival=1.0))]
        completed = [slow, _record(1, arrival=1.0, start=1.1, first=1.2,
                                   finish=1.5)]
        patient = fairness_report(decisions, completed)
        assert patient.wasted_tokens == 0
        impatient = fairness_report(decisions, completed,
                                    abandoned_ttft_s=5.0)
        assert impatient.wasted_tokens == 40
        assert _tenant(impatient, 0).wasted_tokens == 40
        assert _tenant(impatient, 1).wasted_tokens == 0

    def test_weights_divide_service(self):
        # A throttled late arrival puts the cutoff past both services.
        decisions = [_decision(_request(0, user=0)),
                     _decision(_request(1, user=1, arrival=0.1)),
                     _decision(_request(2, user=2, arrival=5.0),
                               admitted=False)]
        completed = [_record(0, finish=0.5),
                     _record(1, arrival=0.1, start=0.2, first=0.3,
                             finish=0.6)]
        unweighted = fairness_report(decisions, completed)
        assert _tenant(unweighted, 0).served_tokens > 0
        weighted = fairness_report(decisions, completed, weights={0: 2.0})
        assert _tenant(weighted, 0).served_tokens == pytest.approx(
            _tenant(unweighted, 0).served_tokens / 2.0)
        assert _tenant(weighted, 1).served_tokens == pytest.approx(
            _tenant(unweighted, 1).served_tokens)


class TestServedFraction:
    def test_finished_before_cutoff(self):
        assert _served_fraction(_record(0, start=0.0, finish=1.0), 2.0) == 1.0

    def test_not_started_by_cutoff(self):
        assert _served_fraction(_record(0, start=5.0, finish=6.0), 2.0) == 0.0

    def test_interpolates_in_flight(self):
        record = _record(0, start=1.0, finish=3.0)
        assert _served_fraction(record, 2.0) == pytest.approx(0.5)


class TestFairnessEndToEnd:
    def test_cluster_report_fairness(self):
        spec = TenantWorkloadSpec(users=4, apps=2,
                                  input_len_range=(16, 48),
                                  output_len_range=(16, 48))
        stream = TenantStream(
            spec=spec, rate_per_s=6.0, count=120, seed=8,
            throttle=ThrottleConfig(window_s=15.0, max_user_requests=5))
        config = ClusterConfig([ReplicaSpec(
            get_platform("spr"), get_model("llama2-7b"), count=2,
            max_batch=4, scheduler="vtc")])
        report = ClusterSimulator(config.build_fleet(),
                                  RoundRobinRouter()).run(stream.full())
        fairness = fairness_report(stream.decisions(), report.completed,
                                   slo=SLO())
        assert 0.0 < fairness.jain_index <= 1.0
        assert 0.0 < fairness.throttle_rate < 1.0
        completed = sum(t.completed for t in fairness.tenants)
        assert completed == len(report.completed)
        arrived = sum(t.arrived for t in fairness.tenants)
        assert arrived == 120
