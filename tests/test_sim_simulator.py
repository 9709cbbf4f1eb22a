"""Tests for the fluid execution simulator."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ConvexCombinationOverlap,
    PlacedClone,
    Schedule,
    SharingPolicy,
    Site,
    WorkVector,
    simulate_phased,
    tree_schedule,
)
from repro.core.schedule import PhasedSchedule
from repro.sim.faults import SiteFaults
from repro.sim.simulator import simulate_schedule, simulate_site

OVERLAP = ConvexCombinationOverlap(0.5)


def site_with(clone_defs, d=2):
    site = Site(0, d)
    for i, comps in enumerate(clone_defs):
        w = WorkVector(comps)
        site.place(
            PlacedClone(
                operator=f"op{i}", clone_index=0, work=w, t_seq=OVERLAP.t_seq(w)
            )
        )
    return site


class TestOptimalStretch:
    def test_matches_equation_two(self):
        site = site_with([[10.0, 2.0], [3.0, 9.0], [1.0, 1.0]])
        result = simulate_site(site, SharingPolicy.OPTIMAL_STRETCH)
        assert result.completion_time == pytest.approx(site.t_site())
        assert result.deviation == pytest.approx(0.0)

    def test_rate_feasibility_recorded(self):
        site = site_with([[10.0, 2.0], [3.0, 9.0]])
        result = simulate_site(site, SharingPolicy.OPTIMAL_STRETCH)
        assert len(result.intervals) == 1
        assert result.intervals[0].is_feasible()

    def test_empty_site(self):
        result = simulate_site(Site(0, 2), SharingPolicy.OPTIMAL_STRETCH)
        assert result.completion_time == 0.0
        assert result.intervals == []

    def test_all_traces_end_at_t_star(self):
        site = site_with([[10.0, 2.0], [3.0, 9.0]])
        result = simulate_site(site, SharingPolicy.OPTIMAL_STRETCH)
        t_star = site.t_site()
        for trace in result.traces:
            assert trace.finish == pytest.approx(t_star)
            assert trace.stretch >= 1.0 - 1e-9


class TestFairShare:
    def test_never_below_analytic(self):
        site = site_with([[10.0, 2.0], [3.0, 9.0], [5.0, 5.0]])
        result = simulate_site(site, SharingPolicy.FAIR_SHARE)
        assert result.completion_time >= site.t_site() - 1e-9

    def test_single_clone_runs_at_full_speed(self):
        site = site_with([[4.0, 2.0]])
        result = simulate_site(site, SharingPolicy.FAIR_SHARE)
        assert result.completion_time == pytest.approx(OVERLAP.t_seq(WorkVector([4.0, 2.0])))

    def test_uncongested_clones_unthrottled(self):
        # Two tiny clones: total rates stay below capacity, no slowdown.
        site = site_with([[1.0, 0.0], [0.0, 1.0]])
        result = simulate_site(site, SharingPolicy.FAIR_SHARE)
        expected = max(OVERLAP.t_seq(WorkVector([1.0, 0.0])), OVERLAP.t_seq(WorkVector([0.0, 1.0])))
        assert result.completion_time == pytest.approx(expected)

    def test_intervals_partition_time(self):
        site = site_with([[10.0, 2.0], [3.0, 9.0], [5.0, 5.0]])
        result = simulate_site(site, SharingPolicy.FAIR_SHARE)
        assert result.intervals[0].start == 0.0
        for a, b in zip(result.intervals, result.intervals[1:]):
            assert b.start == pytest.approx(a.end)
        assert result.intervals[-1].end == pytest.approx(result.completion_time)

    def test_active_set_shrinks(self):
        site = site_with([[10.0, 2.0], [1.0, 1.0]])
        result = simulate_site(site, SharingPolicy.FAIR_SHARE)
        sizes = [len(iv.active) for iv in result.intervals]
        assert sizes == sorted(sizes, reverse=True)

    @settings(max_examples=30)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=2),
            min_size=1,
            max_size=6,
        )
    )
    def test_sandwiched_between_stretch_and_serial(self, clone_defs):
        site = site_with(clone_defs)
        stretch = simulate_site(site, SharingPolicy.OPTIMAL_STRETCH)
        fair = simulate_site(site, SharingPolicy.FAIR_SHARE)
        serial = simulate_site(site, SharingPolicy.SERIAL)
        assert stretch.completion_time <= fair.completion_time + 1e-6
        assert fair.completion_time <= serial.completion_time + 1e-6


class TestSerial:
    def test_sum_of_times(self):
        site = site_with([[4.0, 0.0], [0.0, 6.0]])
        result = simulate_site(site, SharingPolicy.SERIAL)
        expected = OVERLAP.t_seq(WorkVector([4.0, 0.0])) + OVERLAP.t_seq(WorkVector([0.0, 6.0]))
        assert result.completion_time == pytest.approx(expected)

    def test_traces_dont_overlap(self):
        site = site_with([[4.0, 0.0], [0.0, 6.0], [2.0, 2.0]])
        result = simulate_site(site, SharingPolicy.SERIAL)
        spans = sorted((t.start, t.finish) for t in result.traces)
        for (s1, f1), (s2, _) in zip(spans, spans[1:]):
            assert s2 >= f1 - 1e-9

    def test_traces_dont_overlap_under_faults(self):
        # A queued clone starts when it first runs, not at its release:
        # at half speed the queue is (0,12) (12,20) (20,26).
        site = site_with([[4.0, 0.0], [0.0, 6.0], [2.0, 2.0]])
        result = simulate_site(
            site, SharingPolicy.SERIAL, faults=SiteFaults(slowdown=0.5)
        )
        spans = sorted((t.start, t.finish) for t in result.traces)
        assert spans == [(0.0, 12.0), (12.0, 20.0), (20.0, 26.0)]


class TestScheduleAndPhases:
    def _schedule(self):
        sched = Schedule(2, 2)
        sched.place(0, PlacedClone("a", 0, WorkVector([4.0, 1.0]), OVERLAP.t_seq(WorkVector([4.0, 1.0]))))
        sched.place(1, PlacedClone("b", 0, WorkVector([1.0, 4.0]), OVERLAP.t_seq(WorkVector([1.0, 4.0]))))
        return sched

    def test_phase_makespan_is_max_site(self):
        result = simulate_schedule(self._schedule(), SharingPolicy.OPTIMAL_STRETCH)
        assert result.makespan == pytest.approx(result.analytic_makespan)

    def test_phased_sums(self):
        phased = PhasedSchedule()
        phased.append(self._schedule())
        phased.append(self._schedule())
        result = simulate_phased(phased, SharingPolicy.OPTIMAL_STRETCH)
        assert result.response_time == pytest.approx(2 * result.phases[0].makespan)
        assert result.slowdown == pytest.approx(1.0)

    def test_real_tree_schedule_simulates(self, annotated_query, comm, overlap):
        ts = tree_schedule(
            annotated_query.operator_tree, annotated_query.task_tree,
            p=8, comm=comm, overlap=overlap, f=0.7,
        )
        for policy in SharingPolicy:
            result = simulate_phased(ts.phased_schedule, policy)
            assert result.response_time >= ts.response_time * (1 - 1e-9)

    def test_policy_ordering_on_real_schedule(self, annotated_query, comm, overlap):
        ts = tree_schedule(
            annotated_query.operator_tree, annotated_query.task_tree,
            p=8, comm=comm, overlap=overlap, f=0.7,
        )
        stretch = simulate_phased(ts.phased_schedule, SharingPolicy.OPTIMAL_STRETCH)
        fair = simulate_phased(ts.phased_schedule, SharingPolicy.FAIR_SHARE)
        serial = simulate_phased(ts.phased_schedule, SharingPolicy.SERIAL)
        assert stretch.response_time <= fair.response_time <= serial.response_time + 1e-6


class TestSlowdownRatio:
    """Regression: a degenerate schedule (zero analytic time) with positive
    simulated time used to report slowdown 1.0 — perfect agreement where
    there is infinite disagreement."""

    def _result(self, response, analytic):
        from repro.sim.simulator import SimulationResult

        return SimulationResult(
            policy=SharingPolicy.FAIR_SHARE,
            phases=[],
            response_time=response,
            analytic_response_time=analytic,
        )

    def test_zero_analytic_positive_simulated_is_inf(self):
        assert self._result(5.0, 0.0).slowdown == math.inf

    def test_zero_analytic_zero_simulated_is_one(self):
        assert self._result(0.0, 0.0).slowdown == 1.0

    def test_ordinary_ratio(self):
        assert self._result(3.0, 2.0).slowdown == pytest.approx(1.5)


class TestZeroLengthIntervals:
    """Regression: a clone whose remaining work rounds to nothing produced a
    zero-length RateInterval (or a "stalled" error) from the event loop."""

    def test_fair_share_skips_degenerate_steps(self, monkeypatch):
        import repro.sim.simulator as sim_mod

        site = site_with([[4.0, 2.0], [1.0, 1.0]])
        original = sim_mod._clone_states

        def with_exhausted_clone(*args):
            states = original(*args)
            # One clone arrives with its work already (numerically) done:
            # the first fair-share step then has dt == 0.
            states[1].remaining = 0.0
            return states

        monkeypatch.setattr(sim_mod, "_clone_states", with_exhausted_clone)
        result = simulate_site(site, SharingPolicy.FAIR_SHARE)
        # The exhausted clone still completes (it gets a trace) ...
        assert len(result.traces) == 2
        # ... but no degenerate interval is recorded.
        for iv in result.intervals:
            assert iv.end > iv.start

    @pytest.mark.parametrize("policy", list(SharingPolicy))
    def test_exhausted_clone_completes_without_interval(self, monkeypatch, policy):
        import repro.sim.simulator as sim_mod

        site = site_with([[4.0, 2.0], [1.0, 1.0]])
        original = sim_mod._clone_states

        def with_exhausted_clone(*args):
            states = original(*args)
            # One clone arrives with its work already (numerically) done:
            # the step that runs it has dt == 0.
            states[1].remaining = 0.0
            return states

        monkeypatch.setattr(sim_mod, "_clone_states", with_exhausted_clone)
        result = simulate_site(site, policy)
        # The exhausted clone still completes (it gets a trace) ...
        assert len(result.traces) == 2
        (trace,) = [t for t in result.traces if t.operator == "op1"]
        assert trace.finish == trace.start
        # ... but it never appears in an interval, and no degenerate
        # interval is recorded.
        assert result.intervals
        for iv in result.intervals:
            assert iv.end > iv.start
            assert "op1#0" not in iv.active
