"""Tests for hardware-parameter sensitivity sweeps."""

from __future__ import annotations

import random

import pytest

from repro import (
    CloneItem,
    ConfigurationError,
    ConvexCombinationOverlap,
    ModelValidationError,
    WorkVector,
    pack_vectors,
)
from repro.core.schedule import PhasedSchedule, Schedule
from repro.experiments import PAPER_CONFIG, overlap_robustness, parameter_sensitivity
from repro.experiments.sensitivity import SWEEPABLE_FIELDS

TINY = PAPER_CONFIG.with_overrides(n_queries=2)


class TestValidation:
    def test_unknown_field(self):
        with pytest.raises(ConfigurationError):
            parameter_sensitivity("tuple_bytes", (1.0,), TINY)

    def test_bad_multipliers(self):
        with pytest.raises(ConfigurationError):
            parameter_sensitivity("cpu_mips", (), TINY)
        with pytest.raises(ConfigurationError):
            parameter_sensitivity("cpu_mips", (0.0, 1.0), TINY)

    def test_sweepable_fields_exist(self):
        from repro import PAPER_PARAMETERS

        for field in SWEEPABLE_FIELDS:
            assert hasattr(PAPER_PARAMETERS, field)


class TestSweep:
    @pytest.fixture(scope="class")
    def cpu_sweep(self):
        return parameter_sensitivity(
            "cpu_mips", (0.25, 1.0, 4.0), TINY, n_joins=6, p=8
        )

    def test_structure(self, cpu_sweep):
        assert cpu_sweep.figure_id == "sens-cpu_mips"
        labels = {s.label for s in cpu_sweep.series}
        assert labels == {"TreeSchedule", "Synchronous"}
        for s in cpu_sweep.series:
            assert s.xs == (0.25, 1.0, 4.0)
            assert all(y > 0 for y in s.ys)

    def test_faster_cpu_never_slower(self, cpu_sweep):
        for s in cpu_sweep.series:
            assert all(b <= a + 1e-9 for a, b in zip(s.ys, s.ys[1:]))

    def test_treeschedule_wins_at_baseline(self, cpu_sweep):
        ts = cpu_sweep.series_by_label("TreeSchedule")
        sy = cpu_sweep.series_by_label("Synchronous")
        i = ts.xs.index(1.0)
        assert ts.ys[i] < sy.ys[i]

    def test_startup_sweep_slows_everything(self):
        fig = parameter_sensitivity(
            "alpha_startup_seconds", (1.0, 20.0), TINY, n_joins=6, p=8
        )
        for s in fig.series:
            assert s.ys[1] >= s.ys[0] - 1e-9


def packed(n=50, capacities=(1.0,) * 6, seed=4):
    """A fixed packing of ``n`` single-clone operators (built at eps = 0.5)."""
    rng = random.Random(seed)
    items = [
        CloneItem(
            operator=f"op{i}",
            clone_index=0,
            work=WorkVector([rng.uniform(0.1, 10.0) for _ in range(3)]),
        )
        for i in range(n)
    ]
    return pack_vectors(
        items,
        p=len(capacities),
        overlap=ConvexCombinationOverlap(0.5),
        capacities=capacities,
    )


def rebuilt_makespan(schedule, eps):
    overlap = ConvexCombinationOverlap(eps)
    return max(site.recompute_t_seq(overlap).t_site() for site in schedule.sites)


class TestOverlapRobustness:
    def test_figure_shape_and_values(self):
        schedule = packed()
        epsilons = (0.0, 0.1, 0.5, 0.9, 1.0)
        fig = overlap_robustness(schedule, epsilons)
        assert len(fig.series) == 1
        assert fig.series[0].xs == epsilons
        assert fig.series[0].ys == tuple(
            rebuilt_makespan(schedule, eps) for eps in epsilons
        )
        # At the packing's own overlap the figure is the schedule's makespan.
        assert fig.series[0].ys[2] == schedule.makespan()

    def test_matches_recompute_t_seq_per_epsilon(self):
        schedule = packed()
        epsilons = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
        fig = overlap_robustness(schedule, epsilons)
        for eps, span in zip(epsilons, fig.series[0].ys):
            assert span == rebuilt_makespan(schedule, eps)

    def test_heterogeneous_capacities_scale_site_times(self):
        schedule = packed(capacities=(4.0, 1.0, 1.0, 1.0, 0.5, 0.5))
        fig = overlap_robustness(schedule, (0.2, 0.5, 0.8))
        assert fig.series[0].ys[1] == schedule.makespan()
        assert fig.series[0].ys == tuple(
            rebuilt_makespan(schedule, eps) for eps in (0.2, 0.5, 0.8)
        )

    def test_phased_schedule_sums_phase_makespans(self):
        first, second = packed(n=12, seed=1), packed(n=20, seed=2)
        phased = PhasedSchedule()
        phased.append(first)
        phased.append(second)
        fig = overlap_robustness(phased, (0.3,))
        assert fig.series[0].ys == (
            rebuilt_makespan(first, 0.3) + rebuilt_makespan(second, 0.3),
        )

    def test_empty_schedule(self):
        fig = overlap_robustness(Schedule(3, 3), (0.1, 0.9))
        assert fig.series[0].ys == (0.0, 0.0)

    def test_requires_epsilons(self):
        with pytest.raises(ConfigurationError):
            overlap_robustness(packed(n=4), ())

    def test_rejects_out_of_range_epsilon(self):
        with pytest.raises(ModelValidationError):
            overlap_robustness(packed(n=4), (1.5,))
