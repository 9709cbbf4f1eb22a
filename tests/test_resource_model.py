"""Tests for the preemptable-resource usage model (Section 4.1, EA2)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro import (
    PERFECT_OVERLAP,
    ZERO_OVERLAP,
    ConvexCombinationOverlap,
    ModelValidationError,
    ResourceUsage,
    WorkVector,
    validate_sequential_time,
)

vectors3 = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
).map(WorkVector)


class TestValidateSequentialTime:
    def test_in_range_ok(self):
        validate_sequential_time(20.0, WorkVector([10.0, 15.0]))

    def test_below_max_rejected(self):
        with pytest.raises(ModelValidationError):
            validate_sequential_time(14.0, WorkVector([10.0, 15.0]))

    def test_above_sum_rejected(self):
        with pytest.raises(ModelValidationError):
            validate_sequential_time(26.0, WorkVector([10.0, 15.0]))

    def test_boundaries_accepted(self):
        validate_sequential_time(15.0, WorkVector([10.0, 15.0]))
        validate_sequential_time(25.0, WorkVector([10.0, 15.0]))


class TestConvexCombinationOverlap:
    def test_paper_formula(self):
        # T(W) = eps*max + (1-eps)*sum (assumption EA2).
        model = ConvexCombinationOverlap(0.3)
        w = WorkVector([10.0, 15.0, 0.0])
        assert math.isclose(model.t_seq(w), 0.3 * 15.0 + 0.7 * 25.0)

    def test_perfect_overlap_is_max(self):
        w = WorkVector([10.0, 15.0, 5.0])
        assert PERFECT_OVERLAP.t_seq(w) == 15.0

    def test_zero_overlap_is_sum(self):
        w = WorkVector([10.0, 15.0, 5.0])
        assert ZERO_OVERLAP.t_seq(w) == 30.0

    def test_epsilon_out_of_range(self):
        with pytest.raises(ModelValidationError):
            ConvexCombinationOverlap(1.5)
        with pytest.raises(ModelValidationError):
            ConvexCombinationOverlap(-0.1)

    def test_usage_builds_pair(self):
        model = ConvexCombinationOverlap(0.5)
        w = WorkVector([4.0, 2.0])
        usage = model.usage(w)
        assert usage.work is w
        assert usage.t_seq == model.t_seq(w)

    def test_zero_vector(self):
        assert PERFECT_OVERLAP.t_seq(WorkVector.zeros(3)) == 0.0

    @given(vectors3, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_scalar_path_equals_t_seq(self, w, eps):
        # The scalar override must agree with t_seq bit for bit.
        model = ConvexCombinationOverlap(eps)
        assert model.t_seq_components(list(w.components)) == model.t_seq(w)

    @given(vectors3, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_always_within_fundamental_bounds(self, w, eps):
        t = ConvexCombinationOverlap(eps).t_seq(w)
        assert w.length() - 1e-9 <= t <= w.total() + 1e-9

    @given(vectors3, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_epsilon(self, w, e1, e2):
        # More overlap can only shorten the sequential time.
        lo, hi = sorted([e1, e2])
        t_lo = ConvexCombinationOverlap(lo).t_seq(w)
        t_hi = ConvexCombinationOverlap(hi).t_seq(w)
        assert t_hi <= t_lo + 1e-9

    @given(vectors3, vectors3, st.floats(min_value=0.0, max_value=1.0))
    def test_subadditive_under_merge(self, a, b, eps):
        # Merging two operators' vectors never beats running the merged
        # work: T(a+b) <= T(a) + T(b) (both max and sum are subadditive).
        model = ConvexCombinationOverlap(eps)
        assert model.t_seq(a + b) <= model.t_seq(a) + model.t_seq(b) + 1e-6


class TestResourceUsage:
    def test_valid_pair(self):
        u = ResourceUsage(t_seq=22.0, work=WorkVector([10.0, 15.0]))
        assert u.d == 2

    def test_invalid_pair_rejected(self):
        with pytest.raises(ModelValidationError):
            ResourceUsage(t_seq=5.0, work=WorkVector([10.0, 15.0]))

    def test_utilization(self):
        u = ResourceUsage(t_seq=20.0, work=WorkVector([10.0, 15.0]))
        assert u.utilization(0) == 0.5
        assert u.utilization(1) == 0.75

    def test_rate_vector(self):
        u = ResourceUsage(t_seq=20.0, work=WorkVector([10.0, 15.0]))
        assert u.rate_vector() == (0.5, 0.75)

    def test_zero_time_rates(self):
        u = ResourceUsage(t_seq=0.0, work=WorkVector.zeros(2))
        assert u.rate_vector() == (0.0, 0.0)
        assert u.utilization(0) == 0.0

    @given(vectors3, st.floats(min_value=0.0, max_value=1.0))
    def test_rates_never_exceed_one(self, w, eps):
        model = ConvexCombinationOverlap(eps)
        u = model.usage(w)
        # A3: demand is uniform, so W[i]/T_seq <= 1 because T_seq >= max W.
        assert all(r <= 1.0 + 1e-9 for r in u.rate_vector())


class TestCustomOverlapValidation:
    def test_buggy_subclass_detected(self):
        from repro.core.resource_model import OverlapModel

        class Broken(OverlapModel):
            def _t_seq_unchecked(self, work):
                return 0.5 * work.length()  # below the feasible floor

        with pytest.raises(ModelValidationError):
            Broken().t_seq(WorkVector([10.0, 1.0]))

    def test_buggy_subclass_detected_on_scalar_path(self):
        from repro.core.resource_model import OverlapModel

        class Broken(OverlapModel):
            def _t_seq_unchecked(self, work):
                return 0.5 * work.length()

        with pytest.raises(ModelValidationError):
            Broken().t_seq_components([10.0, 1.0])

    def test_base_scalar_path_delegates_to_t_seq(self):
        from repro.core.resource_model import OverlapModel

        class Sum(OverlapModel):
            def _t_seq_unchecked(self, work):
                return work.total()

        assert Sum().t_seq_components([10.0, 1.0]) == 11.0
