"""Tests for the malleable scheduling extension (Section 7)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CommunicationModel,
    ConvexCombinationOverlap,
    OperatorSpec,
    SchedulingError,
    WorkVector,
    candidate_parallelizations,
    lower_bound,
    malleable_schedule,
    optimal_malleable_makespan,
    parallel_time,
    select_parallelization,
)

COMM = CommunicationModel(alpha=0.015, beta=0.6e-6)
OVERLAP = ConvexCombinationOverlap(0.5)


def spec(name, cpu, disk, data=0.0):
    return OperatorSpec(name=name, work=WorkVector([cpu, disk, 0.0]), data_volume=data)


spec_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    min_size=1,
    max_size=5,
).map(
    lambda raw: [
        spec(f"op{i}", cpu, disk, data) for i, (cpu, disk, data) in enumerate(raw)
    ]
)


class TestCandidateGeneration:
    def test_first_candidate_is_all_ones(self):
        specs = [spec("a", 10.0, 0.0), spec("b", 5.0, 5.0)]
        first = next(candidate_parallelizations(specs, 4, COMM, OVERLAP))
        assert first.degrees == {"a": 1, "b": 1}

    def test_each_step_increments_slowest(self):
        specs = [spec("a", 50.0, 0.0), spec("b", 1.0, 0.0)]
        gen = candidate_parallelizations(specs, 4, COMM, OVERLAP)
        c0 = next(gen)
        c1 = next(gen)
        # "a" is the slowest; its degree grows first.
        assert c1.degrees["a"] == 2
        assert c1.degrees["b"] == 1
        assert c0.h >= c1.h - 1e-9 or True  # h may go either way; just no crash

    def test_family_size_bound(self):
        # At most 1 + M(P-1) candidates (Section 7).
        specs = [spec(f"op{i}", 5.0 + i, 2.0) for i in range(3)]
        p = 5
        family = list(candidate_parallelizations(specs, p, COMM, OVERLAP))
        assert 1 <= len(family) <= 1 + len(specs) * (p - 1)

    def test_terminates_when_slowest_saturated(self):
        specs = [spec("a", 50.0, 0.0)]
        family = list(candidate_parallelizations(specs, 3, COMM, OVERLAP))
        assert family[-1].degrees["a"] == 3

    def test_h_matches_recomputation(self):
        specs = [spec("a", 10.0, 5.0, 1e5), spec("b", 3.0, 3.0)]
        for cand in candidate_parallelizations(specs, 4, COMM, OVERLAP):
            expected = max(
                parallel_time(s, cand.degrees[s.name], COMM, OVERLAP) for s in specs
            )
            assert math.isclose(cand.h, expected, rel_tol=1e-9)

    def test_congestion_matches_lower_bound(self):
        specs = [spec("a", 10.0, 5.0, 1e5), spec("b", 3.0, 3.0)]
        p = 4
        for cand in candidate_parallelizations(specs, p, COMM, OVERLAP):
            assert math.isclose(
                cand.lower_bound,
                lower_bound(specs, cand.degrees, p, COMM, OVERLAP),
                rel_tol=1e-9,
            )

    def test_duplicate_names_rejected(self):
        specs = [spec("a", 1.0, 0.0), spec("a", 2.0, 0.0)]
        with pytest.raises(SchedulingError):
            list(candidate_parallelizations(specs, 2, COMM, OVERLAP))

    def test_empty_is_empty(self):
        assert list(candidate_parallelizations([], 2, COMM, OVERLAP)) == []

    def test_bad_p(self):
        with pytest.raises(SchedulingError):
            list(candidate_parallelizations([spec("a", 1.0, 0.0)], 0, COMM, OVERLAP))


class TestSelection:
    def test_selected_minimizes_lb(self):
        specs = [spec("a", 20.0, 5.0, 1e6), spec("b", 5.0, 15.0)]
        best, examined = select_parallelization(specs, 6, COMM, OVERLAP)
        family = list(candidate_parallelizations(specs, 6, COMM, OVERLAP))
        assert examined == len(family)
        assert all(best.lower_bound <= c.lower_bound + 1e-12 for c in family)

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            select_parallelization([], 2, COMM, OVERLAP)


class TestMalleableSchedule:
    def test_result_structure(self):
        specs = [spec("a", 20.0, 5.0, 1e6), spec("b", 5.0, 15.0)]
        result = malleable_schedule(specs, p=6, comm=COMM, overlap=OVERLAP)
        assert result.guarantee == 7.0  # 2d+1 for d=3
        assert result.makespan >= result.lower_bound - 1e-9
        result.schedule_result.schedule.validate(result.schedule_result.degrees)

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            malleable_schedule([], p=2, comm=COMM, overlap=OVERLAP)

    @settings(max_examples=25, deadline=None)
    @given(spec_lists, st.integers(min_value=1, max_value=10))
    def test_theorem_71_bound_vs_lb(self, specs, p):
        """Makespan within (2d+1) of LB of the selected parallelization.

        LB of the selected candidate lower-bounds the global optimum
        (Lemma 7.2), so this checks Theorem 7.1's guarantee.
        """
        result = malleable_schedule(specs, p=p, comm=COMM, overlap=OVERLAP)
        if result.lower_bound > 0:
            assert result.makespan <= result.guarantee * result.lower_bound * (1 + 1e-9)

    @settings(max_examples=8, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=20.0),
                st.floats(min_value=0.0, max_value=20.0),
            ),
            min_size=1,
            max_size=2,
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_theorem_71_versus_exhaustive_optimum(self, raw, p):
        specs = [spec(f"op{i}", cpu, disk) for i, (cpu, disk) in enumerate(raw)]
        result = malleable_schedule(specs, p=p, comm=COMM, overlap=OVERLAP)
        optimum = optimal_malleable_makespan(specs, p=p, comm=COMM, overlap=OVERLAP)
        d = specs[0].d
        assert result.makespan <= (2 * d + 1) * optimum + 1e-9
        assert result.makespan >= optimum - 1e-9

    def test_beats_or_matches_all_ones_often(self):
        # Malleable scheduling should never be (much) worse than the naive
        # sequential parallelization when there are spare sites.
        specs = [spec("big", 40.0, 40.0), spec("small", 1.0, 1.0)]
        result = malleable_schedule(specs, p=8, comm=COMM, overlap=OVERLAP)
        assert result.candidate.degrees["big"] > 1


class TestBatchedFamily:
    """enumerate_candidate_family / select_parallelization_batched are
    byte-identical to the generator-based reference (tentpole contract)."""

    CASES = [
        ([("a", 10.0, 0.0, 0.0), ("b", 5.0, 5.0, 0.0)], 4),
        ([("a", 50.0, 0.0, 0.0)], 3),
        ([(f"op{i}", 5.0 + i, 2.0, 1e4 * i) for i in range(5)], 6),
        ([(f"op{i}", 1.0 + 0.1 * i, 3.0, 0.0) for i in range(8)], 3),
        ([("solo", 7.0, 7.0, 1e6)], 1),
        # A long family: the sequential load += delta fold runs 60+ steps.
        ([(f"op{i}", 40.0 + 3.0 * i, 20.0, 1e3 * i) for i in range(8)], 12),
    ]

    @staticmethod
    def _specs(raw):
        return [spec(name, cpu, disk, data) for name, cpu, disk, data in raw]

    @pytest.mark.parametrize("raw,p", CASES)
    def test_members_match_generator(self, raw, p):
        from repro import CandidateFamily, enumerate_candidate_family

        specs = self._specs(raw)
        family = enumerate_candidate_family(specs, p, COMM, OVERLAP)
        assert isinstance(family, CandidateFamily)
        reference = list(candidate_parallelizations(specs, p, COMM, OVERLAP))
        assert family.size == len(reference)
        for k, cand in enumerate(reference):
            got = family.candidate_at(k)
            assert got.degrees == cand.degrees
            assert got.h == cand.h                    # exact, not approx
            assert got.congestion == cand.congestion  # exact, not approx

    @pytest.mark.parametrize("raw,p", CASES)
    def test_selection_matches_reference(self, raw, p):
        from repro import select_parallelization_batched

        specs = self._specs(raw)
        ref_cand, ref_size = select_parallelization(specs, p, COMM, OVERLAP)
        got_cand, got_size = select_parallelization_batched(
            specs, p, COMM, OVERLAP
        )
        assert got_size == ref_size
        assert got_cand.degrees == ref_cand.degrees
        assert got_cand.h == ref_cand.h
        assert got_cand.congestion == ref_cand.congestion

    def test_lower_bounds_match_candidates(self):
        from repro import enumerate_candidate_family

        specs = self._specs(self.CASES[2][0])
        family = enumerate_candidate_family(specs, 6, COMM, OVERLAP)
        for k, lb in enumerate(family.lower_bounds()):
            assert lb == family.candidate_at(k).lower_bound

    def test_empty_specs(self):
        from repro import enumerate_candidate_family, select_parallelization_batched

        family = enumerate_candidate_family([], 4, COMM, OVERLAP)
        assert family.size == 0
        with pytest.raises(SchedulingError):
            select_parallelization_batched([], 4, COMM, OVERLAP)

    def test_duplicate_names_rejected(self):
        from repro import enumerate_candidate_family

        specs = [spec("dup", 1.0, 1.0), spec("dup", 2.0, 2.0)]
        with pytest.raises(SchedulingError):
            enumerate_candidate_family(specs, 4, COMM, OVERLAP)

    def test_degrees_at_bounds_checked(self):
        from repro import enumerate_candidate_family

        family = enumerate_candidate_family(
            self._specs(self.CASES[0][0]), 4, COMM, OVERLAP
        )
        with pytest.raises(SchedulingError):
            family.degrees_at(family.size)

    def test_malleable_schedule_uses_batched_selection(self):
        # The "lower_bound" strategy routes through the batched selector;
        # results must be unchanged vs the generator-based oracle.
        specs = self._specs(self.CASES[2][0])
        result = malleable_schedule(specs, p=6, comm=COMM, overlap=OVERLAP)
        ref_cand, _ = select_parallelization(specs, 6, COMM, OVERLAP)
        assert result.candidate.degrees == ref_cand.degrees
