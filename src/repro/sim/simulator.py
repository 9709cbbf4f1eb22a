"""Fluid discrete-event simulation of phased schedules.

This substrate executes a schedule instead of just evaluating Equation (3)
on it: every site runs its resident clones under a
:class:`~repro.sim.policies.SharingPolicy`, producing per-clone traces and
piecewise-constant rate intervals whose feasibility (no resource above
unit capacity) and work conservation are checked as the simulation
advances.  Phases are synchronized globally, as in TREESCHEDULE: phase
``k+1`` starts when the slowest site of phase ``k`` finishes.

Under :attr:`SharingPolicy.OPTIMAL_STRETCH` the simulated response time
reproduces the analytic model (to rounding; asserted by the validation
tests); under :attr:`FAIR_SHARE` and :attr:`SERIAL` it bounds the model
from above, quantifying the optimism of assumptions A2/A3.

One engine: every site, faulty or not, runs the same event loop over one
fluid state.  The three sharing policies are rate allocations over that
state (:func:`_allocate_rates`), and the events are clone completions,
straggler releases, the failure instant and the recovery instant.  A
fault-free site is the loop with an empty
:class:`~repro.sim.faults.SiteFaults` bundle, so a zero-fault plan is
byte-identical to no plan at all by construction.  The partial
preemptability model of :mod:`repro.sim.preemptability` is the same loop
with degraded FAIR_SHARE capacities.

Loop state: one ``__slots__`` record per clone (:class:`_Clone`), the
unfinished records in the order the policy takes them, and the straggler
releases still ahead in a sorted list.  An event costs one pass over the
clones that move and touches no other clone while no release lies ahead
(see :func:`_run_site`).  Its floats are bit-identical to those of the
frozen dict-state loop that ``tests/test_sim_faulted_identity.py`` keeps
as its oracle.

Heterogeneous clusters: a site of capacity ``c``
(:attr:`~repro.core.site.Site.capacity`) executes every resource ``c``
times faster; the loop composes ``c`` with any fault slowdown into every
progress speed.  Recorded rate intervals stay in utilization units
(fraction of the site's own budget), while an interval's ``throttle``
is the slowest progress speed including that factor.

Fault injection: every entry point accepts an optional
:class:`~repro.sim.faults.FaultPlan` (or per-site
:class:`~repro.sim.faults.SiteFaults`) honouring capacity slowdowns,
work-estimate skew, straggler start delays and whole-site failures with
restart-after-delay recovery, for all three sharing policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add as _add
from typing import TYPE_CHECKING

from repro.exceptions import SimulationError
from repro.core.resource_model import ConvexCombinationOverlap
from repro.core.schedule import PhasedSchedule, Schedule
from repro.core.site import Site
from repro.core.work_vector import WorkVector
from repro.obs.tracer import current_tracer
from repro.sim.events import CloneTrace, RateInterval
from repro.sim.faults import FaultPlan, FaultReport, SiteFaults
from repro.sim.policies import SharingPolicy

if TYPE_CHECKING:
    from repro.sim.preemptability import PreemptabilityModel

__all__ = [
    "SiteSimulation",
    "PhaseSimulation",
    "SimulationResult",
    "simulate_site",
    "simulate_schedule",
    "simulate_phased",
]

_EPS = 1e-9
_NO_FAULTS = SiteFaults()


@dataclass
class SiteSimulation:
    """Simulation outcome for one site within one phase.

    Attributes
    ----------
    site_index:
        The simulated site.
    completion_time:
        Time (relative to phase start) at which the last clone finished.
    analytic_time:
        The Equation (2) site time, for comparison.
    traces:
        Per-clone execution records.
    intervals:
        Piecewise-constant rate intervals (empty for idle sites).
    """

    site_index: int
    completion_time: float
    analytic_time: float
    traces: list[CloneTrace] = field(default_factory=list)
    intervals: list[RateInterval] = field(default_factory=list)

    @property
    def deviation(self) -> float:
        """Relative excess of simulated over analytic time (0 when idle)."""
        if self.analytic_time <= 0.0:
            return 0.0
        return (self.completion_time - self.analytic_time) / self.analytic_time


@dataclass
class PhaseSimulation:
    """Simulation outcome for one synchronized phase."""

    sites: list[SiteSimulation]
    makespan: float
    analytic_makespan: float


@dataclass
class SimulationResult:
    """Simulation outcome for a full phased schedule.

    Attributes
    ----------
    policy:
        The sharing policy that was simulated.
    phases:
        Per-phase outcomes, in execution order.
    response_time:
        Total simulated response time (sum of phase makespans, since
        phases are globally synchronized).
    analytic_response_time:
        The Equation (3) response time of the same schedule.
    fault_report:
        Per-category fault attribution when the simulation ran under a
        :class:`~repro.sim.faults.FaultPlan`; ``None`` otherwise.
    """

    policy: SharingPolicy
    phases: list[PhaseSimulation]
    response_time: float
    analytic_response_time: float
    fault_report: FaultReport | None = None

    @property
    def slowdown(self) -> float:
        """``simulated / analytic`` response-time ratio (1.0 when equal).

        A degenerate schedule (zero analytic time) with positive
        simulated time is *infinitely* slower, not "in agreement": the
        ratio is ``inf`` in that case, so disagreement on degenerate
        schedules cannot masquerade as a perfect match.
        """
        if self.analytic_response_time <= 0.0:
            return 1.0 if self.response_time <= 0.0 else math.inf
        return self.response_time / self.analytic_response_time


#: Static data of one resident clone under a bundle's skew: label,
#: operator, clone index, actual and scheduled stand-alone times, rates
#: at unit speed and the completion threshold.
_Static = tuple[str, str, int, float, float, tuple[float, ...], float]


class _Clone:
    """Fluid state of one resident clone during a site's event loop.

    ``t_seq`` is the clone's *actual* stand-alone time (skew applied),
    ``scheduled_t_seq`` the one the schedule was built from, ``rates``
    its per-resource demand at unit speed and ``tol`` its completion
    threshold ``_EPS * max(1, t_seq)``.
    """

    __slots__ = (
        "label",
        "operator",
        "clone_index",
        "t_seq",
        "scheduled_t_seq",
        "rates",
        "tol",
        "remaining",
        "release",
        "start",
        "done",
    )

    def __init__(self, static: _Static, release: float) -> None:
        (
            self.label,
            self.operator,
            self.clone_index,
            self.t_seq,
            self.scheduled_t_seq,
            self.rates,
            self.tol,
        ) = static
        self.remaining = self.t_seq
        self.release = release
        self.start: float | None = None
        self.done = False


def _site_base(site: Site, faults: SiteFaults) -> list[_Static]:
    """Static data of every resident clone, with the bundle's skew applied.

    A skewed clone's stand-alone time is re-derived from its *actual*
    work vector under EA2 with the bundle's epsilon, which preserves the
    Section 4.1 bound ``l(W) <= T_seq <= sum(W)`` by construction
    (:meth:`OverlapModel.t_seq` validates it).  Only the skew is read
    from the bundle, so the attribution ladder builds this once per skew
    setting and shares it across its rungs.
    """
    overlap = None
    base = []
    for clone in site.clones:
        label = f"{clone.operator}#{clone.clone_index}"
        components = clone.work.components
        t_actual = clone.t_seq
        fault = faults.clones.get(label)
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
        base.append(
            (
                label,
                clone.operator,
                clone.clone_index,
                t_actual,
                clone.t_seq,
                (
                    tuple([c / t_actual for c in components])
                    if t_actual > 0
                    else (0.0,) * len(components)
                ),
                _EPS * max(1.0, t_actual),
            )
        )
    return base


def _clone_states(
    site: Site, faults: SiteFaults, base: list[_Static] | None = None
) -> list[_Clone]:
    """Fluid state of every resident clone, with the bundle's faults applied.

    ``base`` is :func:`_site_base` of the site under the bundle's skew
    (built here when not given).  A straggler gets its release time;
    every other clone is released at zero.
    """
    if base is None:
        base = _site_base(site, faults)
    faulted = faults.clones
    return [
        _Clone(
            static,
            faulted[static[0]].straggler_delay if static[0] in faulted else 0.0,
        )
        for static in base
    ]


def _check_feasible(
    resource_rates: tuple[float, ...], site_index: int, limit: float
) -> None:
    for i, r in enumerate(resource_rates):
        if r > limit * (1.0 + 1e-6):
            raise SimulationError(
                f"site {site_index}: resource {i} driven at rate {r:.6f} > "
                f"{limit:g}"
            )


def _allocate_rates(
    policy: SharingPolicy,
    active: list[_Clone],
    capacity: float,
    d: int,
    preemptability: PreemptabilityModel | None,
) -> tuple[list[_Clone], float | None, list[float] | None]:
    """The clones that progress during one piecewise-constant segment.

    Returns ``(moving, speed, speeds)``: the active clones given a
    non-zero progress speed (the others wait), and either their one
    common ``speed`` (with ``speeds`` ``None``) or one speed per moving
    clone (with ``speed`` ``None``).  ``capacity`` is the site's speed
    composed with any fault slowdown: it scales *every* progress speed,
    so in isolation it multiplies every duration by exactly
    ``1/capacity`` (the EA2 stand-alone time models imperfect overlap,
    which a uniformly faster or slower site preserves).

    * SERIAL runs the highest-ranked clone (longest scheduled time
      first) alone at the capacity factor; ``active`` arrives in rank
      order, so that is its head.
    * FAIR_SHARE gives every active clone one common throttle
      ``min(1, min_i cap_i / congestion_i)`` over the resources with
      positive congestion, where ``cap_i`` is 1 under assumption A2 and
      the :class:`~repro.sim.preemptability.PreemptabilityModel`'s
      effective capacity for the resource's number of users otherwise.
      At ``cap_i = 1`` this is ``1 / max_i congestion_i`` whenever some
      resource is over-subscribed, since correctly rounded division is
      monotone.  Congestion sums in state order.
    * OPTIMAL_STRETCH finishes every active clone simultaneously at the
      earliest feasible horizon ``max(max_c rem_c, max_i sum_c rate_c[i]
      * rem_c) / capacity`` (the Equation 2 horizon when nothing is
      degraded).
    """
    if policy is SharingPolicy.SERIAL:
        return active[:1], capacity, None
    if policy is SharingPolicy.FAIR_SHARE:
        throttle = 1.0
        for i, column in enumerate(zip(*[s.rates for s in active])):
            # Plain left-to-right addition in state order, as a loop would
            # (``sum`` compensates on Python 3.12); zero rates add nothing.
            c = reduce(_add, column, 0.0)
            if c > 0.0:
                cap = (
                    1.0
                    if preemptability is None
                    else preemptability.effective_capacity(
                        i, len([r for r in column if r > 0.0])
                    )
                )
                throttle = min(throttle, cap / c)
        speed = throttle * capacity
        return (active if speed > 0.0 else []), speed, None
    horizon = max([s.remaining for s in active])
    for i in range(d):
        demand = math.fsum([s.rates[i] * s.remaining for s in active])
        horizon = max(horizon, demand)
    horizon /= capacity
    if horizon <= 0.0:
        return active, 1.0, None
    moving = []
    speeds = []
    for s in active:
        speed = s.remaining / horizon
        if speed > 0.0:
            moving.append(s)
            speeds.append(speed)
    return moving, None, speeds


def _run_site(
    site: Site,
    policy: SharingPolicy,
    faults: SiteFaults = _NO_FAULTS,
    preemptability: PreemptabilityModel | None = None,
    base: list[_Static] | None = None,
) -> tuple[SiteSimulation, float]:
    """Event-driven fluid simulation of one site under a fault bundle.

    The one per-site simulator: an empty bundle is the unperturbed run.
    Returns the site simulation and the stand-alone-seconds of progress
    destroyed (and later re-run) by a failure.  ``base`` is the site's
    :func:`_site_base` when the caller already holds it.

    A clone *starts* when it first receives a non-zero speed, so a
    SERIAL queue records each clone's actual turn, and a zero-work clone
    completes the instant it is released.  Failure semantics: at
    ``fail_at`` every started, unfinished clone loses its progress (its
    remaining work resets to the full actual stand-alone time); clones
    that completed at or before the failure instant keep their
    materialized results; the site is down for ``restart_delay`` and
    then re-runs the lost work.  ``preemptability`` degrades FAIR_SHARE
    capacities (see :func:`_allocate_rates`).

    Loop state: ``pending`` holds the unfinished clone records in the
    order the policy takes them (SERIAL rank order, placement order
    otherwise) and is rebuilt only when a clone completes; ``releases``
    holds the straggler releases, sorted, with a cursor past those
    already reached.  With no release ahead the runnable set is
    ``pending`` itself and the next boundary is the failure instant;
    otherwise it is the head release or the failure instant, whichever
    is first.  An event thus costs one pass over the moving clones
    (FAIR_SHARE congestion, the interval's rates, the progress update)
    and, while no release lies ahead, no scan of the others; a failure
    walks every clone once.  Every float is produced by the same
    operations in the same order as in the frozen dict-state loop of
    ``tests/test_sim_faulted_identity.py``, which pins it with ``==``.
    """
    analytic = site.t_site()
    states = _clone_states(site, faults, base)
    slowdown = faults.slowdown if faults.slowdown is not None else 1.0
    if slowdown <= 0.0:
        raise SimulationError(f"site {site.index}: slowdown factor must be > 0")
    # The site's own speed composes with the fault slowdown: a capacity-2
    # site degraded to half speed progresses at factor 1.0.  Multiplying
    # by the default capacity 1.0 is bit-exact.
    budget = site.capacity
    capacity = budget * slowdown
    d = site.d
    dims = range(d)
    fail_at = faults.fail_at
    restart_delay = faults.restart_delay
    traces: list[CloneTrace] = []
    intervals: list[RateInterval] = []
    work_rerun = 0.0
    now = 0.0
    # Zero-work clones complete the instant they are released.
    for s in states:
        if s.t_seq <= 0.0:
            s.done = True
            traces.append(
                CloneTrace(
                    operator=s.operator,
                    clone_index=s.clone_index,
                    start=s.release,
                    finish=s.release,
                    nominal_t_seq=0.0,
                )
            )
    # The unfinished clones, in the order the policy takes them: SERIAL's
    # rank order (a stable sort, so clones sharing a rank keep placement
    # order), placement order otherwise.
    pending = [s for s in states if not s.done]
    if policy is SharingPolicy.SERIAL:
        rank = {
            s.label: i
            for i, s in enumerate(
                sorted(states, key=lambda s: (-s.scheduled_t_seq, s.label))
            )
        }
        pending.sort(key=lambda s: rank[s.label])
    releases = sorted(s.release for s in pending if s.release > now)
    ahead = 0  # releases[ahead:] lie in the future
    guard = 0
    limit = 10_000 + 10 * len(states)
    while True:
        guard += 1
        if guard > limit:
            raise SimulationError(
                f"site {site.index}: simulation failed to converge"
            )
        if not pending:
            break
        if fail_at is not None and now >= fail_at:
            # The failure fires: in-flight progress is lost and re-run.
            for s in states:
                if not s.done and s.start is not None:
                    lost = s.t_seq - s.remaining
                    if lost > 0.0:
                        work_rerun += lost
                        s.remaining = s.t_seq
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
        while ahead < len(releases) and releases[ahead] <= now:
            ahead += 1
        if ahead < len(releases):
            boundary = releases[ahead]
            if fail_at is not None and fail_at < boundary:
                boundary = fail_at
            active = [s for s in pending if s.release <= now]
        else:
            boundary = fail_at
            active = pending
        if not active:
            if boundary is None:
                raise SimulationError(
                    f"site {site.index}: no runnable clone and no future event"
                )
            now = boundary
            continue
        moving, speed, speeds = _allocate_rates(
            policy, active, capacity, d, preemptability
        )
        if speeds is None:
            # One common speed: correctly rounded division by a positive
            # constant is monotone, so this is the smallest remaining / speed.
            dt = min([s.remaining for s in moving]) / speed if moving else math.inf
            pace = repeat(speed)
        else:
            dt = min(
                [s.remaining / v for s, v in zip(moving, speeds)], default=math.inf
            )
            pace = speeds
        if boundary is not None:
            dt = min(dt, boundary - now)
        # dt == 0 is a clone whose remaining work is already (numerically)
        # nothing: it completes below without recording an interval.
        if not math.isfinite(dt) or dt < 0.0:
            raise SimulationError(
                f"site {site.index}: simulation stalled at t={now}"
            )
        end = now + dt
        if moving and dt > 0.0:
            agg = [0.0] * d
            for s, v in zip(moving, pace):
                row = s.rates
                for i in dims:
                    agg[i] += row[i] * v
            rates = tuple(agg)
            # Budget is the site's own capacity (a fault slowdown wastes
            # part of it; it does not shrink what feasibility allows).
            _check_feasible(rates, site.index, budget)
            if budget != 1.0:
                # Record utilization (fraction of this site's budget) so
                # the RateInterval <= 1 audit stays meaningful on fast sites.
                rates = tuple([r / budget for r in rates])
            intervals.append(
                RateInterval(
                    start=now,
                    end=end,
                    active=tuple([s.label for s in moving]),
                    throttle=speed if speeds is None else min(speeds),
                    resource_rates=rates,
                )
            )
        completed = False
        for s, v in zip(moving, pace):
            if s.start is None:
                s.start = now
            s.remaining -= v * dt
            if s.remaining <= s.tol:
                s.done = True
                s.remaining = 0.0
                completed = True
                traces.append(
                    CloneTrace(
                        operator=s.operator,
                        clone_index=s.clone_index,
                        start=s.start,
                        finish=end,
                        nominal_t_seq=s.t_seq,
                    )
                )
        if completed:
            pending = [s for s in pending if not s.done]
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


def _attribute_site_faults(
    site: Site, policy: SharingPolicy, faults: SiteFaults
) -> tuple[SiteSimulation, FaultReport]:
    """Simulate a faulty site and split its time lost per fault kind.

    The attribution ladder re-simulates with progressively more fault
    kinds enabled (skew -> slowdown -> stragglers -> failure) and
    charges each kind the site-completion-time delta it causes.  Only
    rungs whose kind is present run, so a skew-only site costs two
    simulations, not five; the rungs share one :func:`_site_base`.
    Skew deltas can be negative (overestimated work finishes early); the
    remaining deltas are non-negative.
    """
    report = FaultReport()
    rung = faults.restricted()
    base = _site_base(site, rung)
    sim, _ = _run_site(site, policy, rung, base=base)
    prev = sim.completion_time
    if faults.has_skew:
        rung = faults.restricted(skew=True)
        base = _site_base(site, rung)
        sim, _ = _run_site(site, policy, rung, base=base)
        report.time_lost_skew = sim.completion_time - prev
        prev = sim.completion_time
    if faults.slowdown is not None:
        sim, _ = _run_site(
            site, policy, faults.restricted(skew=True, slowdown=True), base=base
        )
        report.time_lost_slowdown = sim.completion_time - prev
        prev = sim.completion_time
    if faults.has_stragglers:
        sim, _ = _run_site(
            site,
            policy,
            faults.restricted(skew=True, slowdown=True, straggler=True),
            base=base,
        )
        report.time_lost_straggler = sim.completion_time - prev
        prev = sim.completion_time
    if faults.fail_at is not None:
        sim, rerun = _run_site(site, policy, faults, base=base)
        report.time_lost_failure = sim.completion_time - prev
        report.work_rerun = rerun
    return sim, report


def simulate_site(
    site: Site, policy: SharingPolicy, *, faults: SiteFaults | None = None
) -> SiteSimulation:
    """Simulate one site's clones under ``policy``.

    Checks rate feasibility throughout and work conservation at the end
    (every clone's trace spans enough stretched time to complete its
    nominal work).

    ``faults=None`` and an empty bundle are the same unperturbed run.
    A fault-free site must also finish no earlier than its Equation (2)
    time; that floor check is skipped under faults because downward work
    skew legitimately finishes below the *scheduled* analytic time.
    """
    faulty = faults is not None and not faults.is_empty
    result, _ = _run_site(site, policy, faults if faulty else _NO_FAULTS)
    if result.completion_time < -_EPS:
        raise SimulationError(f"site {site.index}: negative completion time")
    if not faulty and result.completion_time < result.analytic_time - 1e-6 * max(
        1.0, result.analytic_time
    ):
        raise SimulationError(
            f"site {site.index}: simulated time {result.completion_time} "
            f"below the Equation (2) floor {result.analytic_time}"
        )
    return result


def _simulate_schedule_with_plan(
    schedule: Schedule, policy: SharingPolicy, plan: FaultPlan, phase_index: int
) -> tuple[PhaseSimulation, FaultReport]:
    """One phase under a fault plan, with per-kind time attribution."""
    report = FaultReport()
    sims = []
    for site in schedule.sites:
        faults = plan.for_site(phase_index, site.index)
        if faults is None or faults.is_empty:
            sims.append(simulate_site(site, policy))
        else:
            sim, site_report = _attribute_site_faults(site, policy, faults)
            report.merge(site_report)
            sims.append(sim)
    makespan = max((s.completion_time for s in sims), default=0.0)
    return (
        PhaseSimulation(
            sites=sims, makespan=makespan, analytic_makespan=schedule.makespan()
        ),
        report,
    )


def simulate_schedule(
    schedule: Schedule,
    policy: SharingPolicy,
    *,
    plan: FaultPlan | None = None,
    phase_index: int = 0,
) -> PhaseSimulation:
    """Simulate one phase (all sites run concurrently from time zero).

    Pass a :class:`~repro.sim.faults.FaultPlan` (and the phase's index
    within it) to run the phase under perturbation; sites the plan
    leaves untouched run unperturbed.
    """
    if plan is not None and not plan.is_empty:
        phase, _ = _simulate_schedule_with_plan(schedule, policy, plan, phase_index)
        return phase
    sites = [simulate_site(site, policy) for site in schedule.sites]
    makespan = max((s.completion_time for s in sites), default=0.0)
    return PhaseSimulation(
        sites=sites, makespan=makespan, analytic_makespan=schedule.makespan()
    )


def simulate_phased(
    phased: PhasedSchedule,
    policy: SharingPolicy = SharingPolicy.OPTIMAL_STRETCH,
    *,
    plan: FaultPlan | None = None,
) -> SimulationResult:
    """Simulate a full phased schedule with a global barrier per phase.

    With a :class:`~repro.sim.faults.FaultPlan`, every phase runs under
    the plan's perturbations and the result carries a
    :class:`~repro.sim.faults.FaultReport` attributing the time lost to
    slowdowns vs. skew vs. stragglers vs. failures.  A zero-fault plan
    produces phases byte-identical to ``plan=None`` (golden-tested),
    plus an all-zero report — the layer is pure extension.
    """
    tracer = current_tracer()
    faulted = plan is not None
    with tracer.span(
        "simulate_phased",
        policy=policy.value,
        num_phases=phased.num_phases,
        faulted=faulted,
    ) as run_span:
        report = None if plan is None else FaultReport.from_counts(plan.counts())
        phases = []
        for k, schedule in enumerate(phased.phases):
            with tracer.span("simulate_phase", index=k) as phase_span:
                if plan is None:
                    phase = simulate_schedule(schedule, policy)
                else:
                    phase, phase_report = _simulate_schedule_with_plan(
                        schedule, policy, plan, k
                    )
                    assert report is not None
                    report.merge(phase_report)
                if phase_span is not None:
                    phase_span.attributes["makespan"] = phase.makespan
            phases.append(phase)
        response = math.fsum(p.makespan for p in phases)
        if run_span is not None:
            run_span.attributes["response_time"] = response
        return SimulationResult(
            policy=policy,
            phases=phases,
            response_time=response,
            analytic_response_time=phased.response_time(),
            fault_report=report,
        )
