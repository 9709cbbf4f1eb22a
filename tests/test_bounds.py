"""Tests for lower bounds and suboptimality certificates."""

from __future__ import annotations

import math

import pytest

from repro import (
    BoundCertificate,
    CommunicationModel,
    ConvexCombinationOverlap,
    OperatorSpec,
    SchedulingError,
    WorkVector,
    certify,
    lower_bound,
    lower_bound_family,
    parallel_time,
    slowest_operator_time,
    theorem51_coarse_grain_bound,
    theorem51_fixed_degree_bound,
    total_work_vector,
    vector_sum,
)

COMM = CommunicationModel(alpha=0.015, beta=0.6e-6)
OVERLAP = ConvexCombinationOverlap(0.5)


def spec(name, cpu, disk, data=0.0):
    return OperatorSpec(name=name, work=WorkVector([cpu, disk, 0.0]), data_volume=data)


class TestGuarantees:
    def test_fixed_degree_bound(self):
        assert theorem51_fixed_degree_bound(1) == 3.0
        assert theorem51_fixed_degree_bound(3) == 7.0

    def test_coarse_grain_bound(self):
        # 2d(fd+1)+1 at d=3, f=0.7: 6*(2.1+1)+1 = 19.6.
        assert math.isclose(theorem51_coarse_grain_bound(3, 0.7), 19.6)

    def test_invalid_inputs(self):
        with pytest.raises(SchedulingError):
            theorem51_fixed_degree_bound(0)
        with pytest.raises(SchedulingError):
            theorem51_coarse_grain_bound(3, 0.0)


class TestSlowestOperator:
    def test_h_is_max_parallel_time(self):
        specs = [spec("a", 10.0, 0.0), spec("b", 2.0, 2.0)]
        degrees = {"a": 2, "b": 1}
        expected = max(
            parallel_time(specs[0], 2, COMM, OVERLAP),
            parallel_time(specs[1], 1, COMM, OVERLAP),
        )
        assert math.isclose(
            slowest_operator_time(specs, degrees, COMM, OVERLAP), expected
        )

    def test_missing_degree_rejected(self):
        with pytest.raises(SchedulingError):
            slowest_operator_time([spec("a", 1.0, 1.0)], {}, COMM, OVERLAP)

    def test_empty_specs(self):
        assert slowest_operator_time([], {}, COMM, OVERLAP) == 0.0


class TestLowerBound:
    def test_formula(self):
        specs = [spec("a", 10.0, 2.0), spec("b", 4.0, 8.0)]
        degrees = {"a": 2, "b": 1}
        p = 2
        totals = [total_work_vector(s, degrees[s.name], COMM) for s in specs]
        expected = max(
            vector_sum(totals).length() / p,
            slowest_operator_time(specs, degrees, COMM, OVERLAP),
        )
        assert math.isclose(
            lower_bound(specs, degrees, p, COMM, OVERLAP), expected
        )

    def test_congestion_dominates_many_ops(self):
        # Many small operators on one site: l(S)/P > h.
        specs = [spec(f"op{i}", 1.0, 0.0) for i in range(20)]
        degrees = {s.name: 1 for s in specs}
        lb = lower_bound(specs, degrees, 1, COMM, OVERLAP)
        h = slowest_operator_time(specs, degrees, COMM, OVERLAP)
        assert lb > h

    def test_slowest_dominates_on_many_sites(self):
        specs = [spec("big", 100.0, 0.0), spec("small", 1.0, 0.0)]
        degrees = {"big": 1, "small": 1}
        lb = lower_bound(specs, degrees, 50, COMM, OVERLAP)
        assert math.isclose(lb, parallel_time(specs[0], 1, COMM, OVERLAP))

    def test_empty(self):
        assert lower_bound([], {}, 4, COMM, OVERLAP) == 0.0

    def test_bad_p(self):
        with pytest.raises(SchedulingError):
            lower_bound([], {}, 0, COMM, OVERLAP)

    def test_family_matches_lower_bound_per_member(self):
        comm = CommunicationModel(alpha=1.0, beta=0.01)
        specs = [
            spec(f"op{i}", 1.0 + 7.0 * i, 40.0 - 6.0 * i, data=10.0 + 30.0 * i)
            for i in range(6)
        ]
        family = [
            {s.name: 1 for s in specs},
            {s.name: (2 if i % 2 else 1) for i, s in enumerate(specs)},
            {s.name: 3 for s in specs},
        ]
        bounds = lower_bound_family(specs, family, 4, comm, OVERLAP)
        assert bounds == [
            lower_bound(specs, degrees, 4, comm, OVERLAP) for degrees in family
        ]

    def test_family_of_empty_specs(self):
        assert lower_bound_family([], [{}, {}], 2, COMM, OVERLAP) == [0.0, 0.0]


class TestCertify:
    def test_certificate_fields(self):
        specs = [spec("a", 10.0, 2.0)]
        degrees = {"a": 1}
        lb = lower_bound(specs, degrees, 2, COMM, OVERLAP)
        cert = certify(lb * 2.0, specs, degrees, 2, COMM, OVERLAP)
        assert math.isclose(cert.ratio, 2.0)
        assert cert.guarantee == 7.0  # 2d+1 at d=3
        assert cert.satisfied

    def test_violation_detected(self):
        specs = [spec("a", 10.0, 2.0)]
        degrees = {"a": 1}
        lb = lower_bound(specs, degrees, 2, COMM, OVERLAP)
        cert = certify(lb * 100.0, specs, degrees, 2, COMM, OVERLAP)
        assert not cert.satisfied
        assert "VIOLATED" in str(cert)

    def test_custom_guarantee(self):
        cert = certify(1.0, [spec("a", 1.0, 0.0)], {"a": 1}, 1, COMM, OVERLAP, guarantee=1.5)
        assert cert.guarantee == 1.5

    def test_zero_everything(self):
        cert = BoundCertificate(makespan=0.0, lower_bound=0.0, ratio=1.0, guarantee=7.0)
        assert cert.satisfied

    def test_negative_makespan_rejected(self):
        with pytest.raises(SchedulingError):
            certify(-1.0, [spec("a", 1.0, 0.0)], {"a": 1}, 1, COMM, OVERLAP)

    def test_ok_string(self):
        cert = BoundCertificate(makespan=1.0, lower_bound=1.0, ratio=1.0, guarantee=7.0)
        assert "OK" in str(cert)
