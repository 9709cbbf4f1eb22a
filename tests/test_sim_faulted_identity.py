"""Faulted-path equivalence of the event loop and a frozen dict-state loop.

``tests/test_sim_engine_identity.py`` pins the zero-fault path against
closed-form engines.  This module pins everything else: the oracle below
is a frozen copy of the event loop as it stood before its state moved
into slot records (one dict per clone, ``pending``/``active``/
``boundaries`` rebuilt by a scan of every clone on every event, a
``(state, speed)`` pair per moving clone).  The live loop must reproduce
it *exactly* (``==`` on the whole :class:`SiteSimulation` and on the
re-run work) under random fault bundles, all three sharing policies,
heterogeneous capacities and partial preemptability.  The frozen copies
of ``SiteFaults.restricted`` and ``FaultPlan.build`` pin the attribution
ladder and plan expansion the same way.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ConvexCombinationOverlap,
    PlacedClone,
    SharingPolicy,
    Site,
    WorkVector,
)
from repro.core.schedule import PhasedSchedule, Schedule
from repro.exceptions import SimulationError
from repro.sim.events import CloneTrace, RateInterval
from repro.sim.faults import CloneFault, FaultPlan, FaultReport, FaultSpec, SiteFaults
from repro.sim.preemptability import PreemptabilityModel
from repro.sim.simulator import SiteSimulation, _attribute_site_faults, _run_site

_EPS = 1e-9
_NO_FAULTS = SiteFaults()


# --- frozen dict-state loop -------------------------------------------------


def ref_clone_states(site, faults):
    overlap = None
    states = []
    for clone in site.clones:
        label = f"{clone.operator}#{clone.clone_index}"
        fault = faults.clones.get(label)
        components = clone.work.components
        t_actual = clone.t_seq
        if fault is not None and fault.work_multipliers is not None:
            if len(fault.work_multipliers) != clone.work.d:
                raise SimulationError(
                    f"site {site.index}: skew for {label} has "
                    f"{len(fault.work_multipliers)} components; clone has {clone.work.d}"
                )
            if overlap is None:
                overlap = ConvexCombinationOverlap(faults.epsilon)
            actual = WorkVector(
                [c * m for c, m in zip(components, fault.work_multipliers)]
            )
            t_actual = overlap.t_seq(actual)
            components = actual.components
        rates = tuple((c / t_actual if t_actual > 0 else 0.0) for c in components)
        states.append(
            {
                "label": label,
                "operator": clone.operator,
                "clone_index": clone.clone_index,
                "t_seq": t_actual,
                "scheduled_t_seq": clone.t_seq,
                "rates": rates,
                "remaining": t_actual,
                "release": fault.straggler_delay if fault is not None else 0.0,
                "start": None,
                "done": False,
            }
        )
    return states


def ref_check_feasible(resource_rates, site_index, limit):
    for i, r in enumerate(resource_rates):
        if r > limit * (1.0 + 1e-6):
            raise SimulationError(
                f"site {site_index}: resource {i} driven at rate {r:.6f} > "
                f"{limit:g}"
            )


def ref_allocate_rates(policy, active, capacity, d, serial_rank, preemptability):
    if policy is SharingPolicy.SERIAL:
        runner = min(active, key=lambda s: serial_rank[s["label"]])
        return [(runner, capacity)]
    if policy is SharingPolicy.FAIR_SHARE:
        congestion = [0.0] * d
        users = [0] * d
        for s in active:
            for i, r in enumerate(s["rates"]):
                if r > 0.0:
                    congestion[i] += r
                    users[i] += 1
        throttle = 1.0
        for i, c in enumerate(congestion):
            if c > 0.0:
                cap = (
                    1.0
                    if preemptability is None
                    else preemptability.effective_capacity(i, users[i])
                )
                throttle = min(throttle, cap / c)
        speed = throttle * capacity
        return [(s, speed) for s in active] if speed > 0.0 else []
    horizon = max(s["remaining"] for s in active)
    for i in range(d):
        demand = math.fsum(s["rates"][i] * s["remaining"] for s in active)
        horizon = max(horizon, demand)
    horizon /= capacity
    if horizon <= 0.0:
        return [(s, 1.0) for s in active]
    moving = []
    for s in active:
        speed = s["remaining"] / horizon
        if speed > 0.0:
            moving.append((s, speed))
    return moving


def ref_run_site(site, policy, faults=_NO_FAULTS, preemptability=None):
    analytic = site.t_site()
    states = ref_clone_states(site, faults)
    slowdown = faults.slowdown if faults.slowdown is not None else 1.0
    if slowdown <= 0.0:
        raise SimulationError(f"site {site.index}: slowdown factor must be > 0")
    capacity = site.capacity * slowdown
    d = site.d
    fail_at = faults.fail_at
    restart_delay = faults.restart_delay
    serial_rank = None
    if policy is SharingPolicy.SERIAL:
        serial_rank = {
            s["label"]: i
            for i, s in enumerate(
                sorted(states, key=lambda s: (-s["scheduled_t_seq"], s["label"]))
            )
        }
    traces = []
    intervals = []
    work_rerun = 0.0
    now = 0.0
    for s in states:
        if s["t_seq"] <= 0.0:
            s["done"] = True
            traces.append(
                CloneTrace(
                    operator=s["operator"],
                    clone_index=s["clone_index"],
                    start=s["release"],
                    finish=s["release"],
                    nominal_t_seq=0.0,
                )
            )
    guard = 0
    limit = 10_000 + 10 * len(states)
    while True:
        guard += 1
        if guard > limit:
            raise SimulationError(
                f"site {site.index}: simulation failed to converge"
            )
        pending = [s for s in states if not s["done"]]
        if not pending:
            break
        if fail_at is not None and now >= fail_at:
            for s in pending:
                if s["start"] is not None:
                    lost = s["t_seq"] - s["remaining"]
                    if lost > 0.0:
                        work_rerun += lost
                        s["remaining"] = s["t_seq"]
            recovered = now + restart_delay
            if restart_delay > 0.0:
                intervals.append(
                    RateInterval(
                        start=now,
                        end=recovered,
                        active=(),
                        throttle=0.0,
                        resource_rates=(0.0,) * d,
                    )
                )
            now = recovered
            fail_at = None
            continue
        boundaries = [s["release"] for s in pending if s["release"] > now]
        if fail_at is not None and fail_at > now:
            boundaries.append(fail_at)
        active = [s for s in pending if s["release"] <= now]
        if not active:
            if not boundaries:
                raise SimulationError(
                    f"site {site.index}: no runnable clone and no future event"
                )
            now = min(boundaries)
            continue
        moving = ref_allocate_rates(
            policy, active, capacity, d, serial_rank, preemptability
        )
        dt = min((s["remaining"] / v for s, v in moving), default=math.inf)
        if boundaries:
            dt = min(dt, min(boundaries) - now)
        if not math.isfinite(dt) or dt < 0.0:
            raise SimulationError(
                f"site {site.index}: simulation stalled at t={now}"
            )
        end = now + dt
        if moving and dt > 0.0:
            agg = [0.0] * d
            for s, v in moving:
                for i, r in enumerate(s["rates"]):
                    agg[i] += r * v
            rates = tuple(agg)
            ref_check_feasible(rates, site.index, site.capacity)
            if site.capacity != 1.0:
                rates = tuple(r / site.capacity for r in rates)
            intervals.append(
                RateInterval(
                    start=now,
                    end=end,
                    active=tuple(s["label"] for s, _ in moving),
                    throttle=min(v for _, v in moving),
                    resource_rates=rates,
                )
            )
        for s, v in moving:
            if s["start"] is None:
                s["start"] = now
            s["remaining"] -= v * dt
            if s["remaining"] <= _EPS * max(1.0, s["t_seq"]):
                s["done"] = True
                s["remaining"] = 0.0
                traces.append(
                    CloneTrace(
                        operator=s["operator"],
                        clone_index=s["clone_index"],
                        start=s["start"],
                        finish=end,
                        nominal_t_seq=s["t_seq"],
                    )
                )
        now = end
    completion = max((t.finish for t in traces), default=now)
    return (
        SiteSimulation(
            site_index=site.index,
            completion_time=completion,
            analytic_time=analytic,
            traces=traces,
            intervals=intervals,
        ),
        work_rerun,
    )


def ref_restricted(faults, *, skew=False, slowdown=False, straggler=False, failure=False):
    clones = {}
    for label, fault in faults.clones.items():
        kept = CloneFault(
            work_multipliers=fault.work_multipliers if skew else None,
            straggler_delay=fault.straggler_delay if straggler else 0.0,
        )
        if not kept.is_empty:
            clones[label] = kept
    return SiteFaults(
        slowdown=faults.slowdown if slowdown else None,
        fail_at=faults.fail_at if failure else None,
        restart_delay=faults.restart_delay if failure else 0.0,
        clones=clones,
        epsilon=faults.epsilon,
    )


def ref_attribute_site_faults(site, policy, faults):
    report = FaultReport()
    sim, _ = ref_run_site(site, policy, ref_restricted(faults))
    prev = sim.completion_time
    if faults.has_skew:
        sim, _ = ref_run_site(site, policy, ref_restricted(faults, skew=True))
        report.time_lost_skew = sim.completion_time - prev
        prev = sim.completion_time
    if faults.slowdown is not None:
        sim, _ = ref_run_site(
            site, policy, ref_restricted(faults, skew=True, slowdown=True)
        )
        report.time_lost_slowdown = sim.completion_time - prev
        prev = sim.completion_time
    if faults.has_stragglers:
        sim, _ = ref_run_site(
            site,
            policy,
            ref_restricted(faults, skew=True, slowdown=True, straggler=True),
        )
        report.time_lost_straggler = sim.completion_time - prev
        prev = sim.completion_time
    if faults.fail_at is not None:
        sim, rerun = ref_run_site(site, policy, faults)
        report.time_lost_failure = sim.completion_time - prev
        report.work_rerun = rerun
    return sim, report


def ref_build(spec, phased, seed):
    rng = random.Random(seed)
    sites = {}
    for k, schedule in enumerate(phased.phases):
        for site in schedule.sites:
            if site.is_empty():
                continue
            t_ref = site.t_site()
            slowdown = None
            if rng.random() < spec.slowdown_prob:
                slowdown = rng.uniform(*spec.slowdown_range)
            fail_at = None
            restart_delay = 0.0
            if rng.random() < spec.failure_prob and t_ref > 0.0:
                fail_at = rng.uniform(*spec.failure_at_range) * t_ref
                restart_delay = rng.uniform(*spec.restart_delay_range) * t_ref
            clones = {}
            for clone in site.clones:
                multipliers = None
                if rng.random() < spec.skew_prob:
                    multipliers = tuple(
                        rng.uniform(*spec.skew_range) for _ in range(clone.work.d)
                    )
                delay = 0.0
                if rng.random() < spec.straggler_prob and t_ref > 0.0:
                    delay = rng.uniform(*spec.straggler_delay_range) * t_ref
                fault = CloneFault(work_multipliers=multipliers, straggler_delay=delay)
                if not fault.is_empty:
                    clones[f"{clone.operator}#{clone.clone_index}"] = fault
            bundle = SiteFaults(
                slowdown=slowdown,
                fail_at=fail_at,
                restart_delay=restart_delay,
                clones=clones,
                epsilon=spec.epsilon,
            )
            if not bundle.is_empty:
                sites[(k, site.index)] = bundle
    return FaultPlan(spec=spec, seed=seed, sites=sites)


# --- strategies ---------------------------------------------------------------

component = st.one_of(
    st.just(0.0), st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
)
# A small pool of shared values makes releases, failure instants and
# completions coincide often, exercising every tie in the event order.
instant = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


def build_site(clone_defs, capacity, epsilon):
    overlap = ConvexCombinationOverlap(epsilon)
    site = Site(0, len(clone_defs[0]), capacity)
    for i, comps in enumerate(clone_defs):
        w = WorkVector(comps)
        site.place(PlacedClone(f"op{i}", i % 3, w, overlap.t_seq(w)))
    return site


@st.composite
def faulty_sites(draw):
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
    capacity = draw(st.sampled_from([1.0, 0.5, 1.7]))
    epsilon = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    site = build_site(clone_defs, capacity, epsilon)
    clones = {}
    for i in range(len(clone_defs)):
        multipliers = None
        if draw(st.booleans()):
            multipliers = tuple(
                draw(st.floats(min_value=0.25, max_value=4.0, allow_nan=False))
                for _ in range(d)
            )
        delay = draw(instant) if draw(st.booleans()) else 0.0
        fault = CloneFault(work_multipliers=multipliers, straggler_delay=delay)
        if not fault.is_empty:
            clones[f"op{i}#{i % 3}"] = fault
    slowdown = None
    if draw(st.booleans()):
        slowdown = draw(st.floats(min_value=0.1, max_value=1.0, allow_nan=False))
    fail_at = None
    restart_delay = 0.0
    if draw(st.booleans()):
        fail_at = draw(instant)
        restart_delay = draw(st.one_of(st.just(0.0), instant))
    faults = SiteFaults(
        slowdown=slowdown,
        fail_at=fail_at,
        restart_delay=restart_delay,
        clones=clones,
        epsilon=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    )
    return site, faults


@st.composite
def preemptability(draw, d):
    if draw(st.booleans()):
        return None
    return PreemptabilityModel(
        tuple(
            draw(st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)))
            for _ in range(d)
        )
    )


def run_both(run, ref, *args):
    """Run the live and frozen code; both must return or raise alike."""
    try:
        want = ref(*args)
    except SimulationError as exc:
        with pytest.raises(SimulationError) as info:
            run(*args)
        assert str(info.value) == str(exc)
        return None
    return run(*args), want


class TestFaultedEquivalence:
    @settings(max_examples=600, deadline=None)
    @given(
        case=faulty_sites(),
        policy=st.sampled_from(list(SharingPolicy)),
        data=st.data(),
    )
    def test_event_loop_matches_dict_state_loop(self, case, policy, data):
        site, faults = case
        model = data.draw(preemptability(site.d))
        outcome = run_both(_run_site, ref_run_site, site, policy, faults, model)
        if outcome is not None:
            (sim, rerun), (want_sim, want_rerun) = outcome
            assert sim == want_sim
            assert rerun == want_rerun

    @settings(max_examples=300, deadline=None)
    @given(case=faulty_sites(), policy=st.sampled_from(list(SharingPolicy)))
    def test_attribution_ladder_matches(self, case, policy):
        site, faults = case
        outcome = run_both(
            _attribute_site_faults, ref_attribute_site_faults, site, policy, faults
        )
        if outcome is not None:
            (sim, report), (want_sim, want_report) = outcome
            assert sim == want_sim
            assert report == want_report

    @settings(max_examples=300, deadline=None)
    @given(case=faulty_sites(), data=st.data())
    def test_restricted_matches(self, case, data):
        _, faults = case
        flags = {
            name: data.draw(st.booleans())
            for name in ("skew", "slowdown", "straggler", "failure")
        }
        assert faults.restricted(**flags) == ref_restricted(faults, **flags)

    @pytest.mark.parametrize("seed", [0, 1, 7919])
    @pytest.mark.parametrize("intensity", [0.0, 0.3, 1.0])
    def test_plan_build_matches(self, seed, intensity):
        phased = PhasedSchedule()
        overlap = ConvexCombinationOverlap(0.5)
        for k in range(3):
            schedule = Schedule(4, 3)
            for j in range(9):
                w = WorkVector([1.0 + (j * 7 + k) % 5, 0.5 * (j % 3), 2.0])
                schedule.place(j % 4, PlacedClone(f"p{k}op{j}", j // 4, w, overlap.t_seq(w)))
            phased.append(schedule, f"t{k}")
        spec = FaultSpec.at_intensity(intensity)
        assert FaultPlan.build(spec, phased, seed) == ref_build(spec, phased, seed)

    def test_skew_dimension_mismatch_raises_alike(self):
        site = build_site([[1.0, 2.0], [3.0, 1.0]], 1.0, 0.5)
        faults = SiteFaults(clones={"op1#1": CloneFault(work_multipliers=(2.0,))})
        assert run_both(_run_site, ref_run_site, site, SharingPolicy.FAIR_SHARE, faults) is None
