"""Zero-fault equivalence of the one event loop and the closed-form engines.

``simulate_site`` runs every site through one event loop.  The oracle
below is the set of per-policy engines it replaces, run in unit-capacity
time and rescaled by ``1/c``: OPTIMAL_STRETCH in closed form, FAIR_SHARE
as an equal-throttle loop, SERIAL as a longest-first queue.  At capacity
1.0 FAIR_SHARE and SERIAL agree with exact ``==``; OPTIMAL_STRETCH
derives its horizon from per-clone rates (``fsum(rate * remaining)``
instead of the load vector) and every policy at other capacities divides
inside the loop instead of after it, so those agree to 1e-14 relative.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ConvexCombinationOverlap,
    PlacedClone,
    SharingPolicy,
    Site,
    WorkVector,
)
from repro.sim.events import CloneTrace
from repro.sim.simulator import SiteSimulation, simulate_site

_EPS = 1e-9


def reference_unit_t_site(site):
    """Equation (2) at unit capacity."""
    if site.is_empty():
        return 0.0
    return max(site.max_t_seq(), site.length())


def reference_states(site):
    states = []
    for clone in site.clones:
        t = clone.t_seq
        states.append(
            {
                "label": f"{clone.operator}#{clone.clone_index}",
                "operator": clone.operator,
                "clone_index": clone.clone_index,
                "t_seq": t,
                "rates": tuple((c / t if t > 0 else 0.0) for c in clone.work.components),
                "remaining": t,
            }
        )
    return states


def reference_stretch(site):
    t_star = reference_unit_t_site(site)
    states = reference_states(site)
    traces = [
        CloneTrace(s["operator"], s["clone_index"], 0.0,
                   t_star if s["t_seq"] > 0 else 0.0, s["t_seq"])
        for s in states
    ]
    return SiteSimulation(site.index, t_star if states else 0.0, t_star, traces)


def reference_fair_share(site):
    states = reference_states(site)
    active = [s for s in states if s["t_seq"] > 0]
    traces = [
        CloneTrace(s["operator"], s["clone_index"], 0.0, 0.0, 0.0)
        for s in states
        if s["t_seq"] <= 0
    ]
    now = 0.0
    while active:
        congestion = [0.0] * site.d
        for s in active:
            for i, r in enumerate(s["rates"]):
                congestion[i] += r
        peak = max(congestion, default=0.0)
        throttle = 1.0 if peak <= 1.0 else 1.0 / peak
        dt = min(s["remaining"] / throttle for s in active)
        end = now + dt
        still_active = []
        for s in active:
            s["remaining"] -= throttle * dt
            if s["remaining"] <= _EPS * max(1.0, s["t_seq"]):
                traces.append(
                    CloneTrace(s["operator"], s["clone_index"], 0.0, end, s["t_seq"])
                )
            else:
                still_active.append(s)
        active = still_active
        now = end
    return SiteSimulation(site.index, now, reference_unit_t_site(site), traces)


def reference_serial(site):
    states = sorted(reference_states(site), key=lambda s: (-s["t_seq"], s["label"]))
    traces = []
    now = 0.0
    for s in states:
        end = now + s["t_seq"]
        traces.append(CloneTrace(s["operator"], s["clone_index"], now, end, s["t_seq"]))
        now = end
    return SiteSimulation(site.index, now, reference_unit_t_site(site), traces)


REFERENCE = {
    SharingPolicy.OPTIMAL_STRETCH: reference_stretch,
    SharingPolicy.FAIR_SHARE: reference_fair_share,
    SharingPolicy.SERIAL: reference_serial,
}


def reference_simulate_site(site, policy):
    """The closed-form engine in unit time, rescaled by ``1/capacity``."""
    sim = REFERENCE[policy](site)
    c = site.capacity
    if c != 1.0:
        sim.completion_time /= c
        sim.analytic_time /= c
        sim.traces = [
            CloneTrace(t.operator, t.clone_index, t.start / c, t.finish / c,
                       t.nominal_t_seq)
            for t in sim.traces
        ]
    return sim


def finishes(sim):
    """Finish time per positive-work clone, keyed by its label."""
    return {
        f"{t.operator}#{t.clone_index}": t.finish
        for t in sim.traces
        if t.nominal_t_seq > 0.0
    }


def build_site(clone_defs, capacity, epsilon):
    overlap = ConvexCombinationOverlap(epsilon)
    site = Site(0, len(clone_defs[0]), capacity)
    for i, comps in enumerate(clone_defs):
        w = WorkVector(comps)
        site.place(PlacedClone(f"op{i}", i % 3, w, overlap.t_seq(w)))
    return site


component = st.one_of(
    st.just(0.0), st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
)


@st.composite
def sites(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    clone_defs = draw(
        st.lists(
            st.one_of(
                st.just([0.0] * d),
                st.lists(component, min_size=d, max_size=d),
            ),
            min_size=1,
            max_size=8,
        )
    )
    capacity = draw(st.sampled_from([1.0, 0.5, 1.7, 2.0]))
    epsilon = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    return build_site(clone_defs, capacity, epsilon)


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-14, abs_tol=0.0)


class TestZeroFaultEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(site=sites(), policy=st.sampled_from(list(SharingPolicy)))
    def test_event_loop_matches_closed_form_engines(self, site, policy):
        sim = simulate_site(site, policy)
        ref = reference_simulate_site(site, policy)
        assert sim.analytic_time == ref.analytic_time
        got, want = finishes(sim), finishes(ref)
        assert got.keys() == want.keys()
        exact = site.capacity == 1.0 and policy is not SharingPolicy.OPTIMAL_STRETCH
        if exact:
            assert sim.completion_time == ref.completion_time
            assert got == want
        else:
            assert close(sim.completion_time, ref.completion_time)
            for label, finish in want.items():
                assert close(got[label], finish)

    @settings(max_examples=200, deadline=None)
    @given(site=sites())
    def test_stretch_reproduces_equation_two(self, site):
        sim = simulate_site(site, SharingPolicy.OPTIMAL_STRETCH)
        assert math.isclose(sim.completion_time, site.t_site(), rel_tol=1e-12, abs_tol=0.0)

    @pytest.mark.parametrize("policy", list(SharingPolicy))
    def test_zero_work_clones_finish_at_release(self, policy):
        site = build_site([[0.0, 0.0], [4.0, 2.0], [0.0, 0.0], [1.0, 3.0]], 1.0, 0.5)
        sim = simulate_site(site, policy)
        zero = [t for t in sim.traces if t.nominal_t_seq == 0.0]
        assert len(zero) == 2
        assert all(t.start == t.finish == 0.0 for t in zero)
        assert close(sim.completion_time, reference_simulate_site(site, policy).completion_time)
