"""The four benchmark workloads, driven through the library's public API.

Each workload turns a seed into inputs during set-up, then lists a fixed
sequence of ops in *cycles*: one cycle is a fixed mix of op kinds (sizes,
site counts, algorithms, policies, rates) with seed-drawn instances.  The
cycle count is fixed per workload (scaled with the window length only),
so every run measures the same ops on any host.  An op returns an
:class:`Outcome`; its output is checked after the timed region, never
inside it.

Why each workload exists (see README.md for the prediction table):

* ``sweep`` -- the paper's Section 6 figure loop, the path users run
  most.  Degree selection and shelf packing do most of the work.
* ``robust`` -- schedules simulated under fault injection: ``sim`` does
  most of the work here and none in ``sweep``.
* ``plansearch`` -- the schedule-aware optimizer, cold against a fresh
  artifact store (writes) and re-searched warm (reads).
* ``serve`` -- the online service as an open loop in virtual time; the
  scheduling core is memoized, so the service layers do the host work.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

#: Relative tolerance for "simulated response time never beats Eq. 3".
_TOL = 1e-9


def derive(*parts) -> int:
    """A stable 31-bit seed from any printable parts (no hash randomization)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = min(len(sorted_values), max(1, math.ceil(q / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1]


def fmt(x: float) -> str:
    """Float text for digests: 12 significant digits, host-independent."""
    return f"{x:.12g}"


@dataclass
class Outcome:
    """What one op produced.

    ``key`` is the op's output fingerprint (digested, and compared across
    passes); ``virtual`` are model-time response times in seconds;
    ``attempted``/``failed`` count the user-visible units (jobs for
    ``serve``, else 1); ``payload`` is kept for the post-run checks.
    """

    key: str
    virtual: list[float]
    attempted: int = 1
    failed: int = 0
    payload: object = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    cycle: int
    index: int
    args: tuple


class Workload:
    """Shared op-list machinery; subclasses fill in set-up, ops and checks."""

    name = ""
    #: Cycles in a 15-second window on a 2-vCPU Xeon; scaled with the
    #: window, so the op list is the same on every host.
    cycles = 1
    #: Times the whole op list runs in one window; an op's time is its
    #: fastest pass, so a slow spell of the host shows in fewer ops.
    passes = 4
    #: Each op is followed by a timed warm re-run on the state its first
    #: run left behind (``plansearch``: the re-search on a filled store).
    warm_rerun = False

    def __init__(self, seed: int, root: Path, cycles: int) -> None:
        self.seed = seed
        self.root = root
        self.n_cycles = cycles

    def setup(self) -> None:
        raise NotImplementedError

    def cycle_args(self, cycle: int) -> list[tuple]:
        raise NotImplementedError

    def run(self, *args) -> Outcome:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        return [
            Op(cycle, i, a)
            for cycle in range(self.n_cycles)
            for i, a in enumerate(self.cycle_args(cycle))
        ]

    def prepare(self, op: Op) -> dict:
        """Untimed per-op state, passed to the op and its warm re-run."""
        return {}

    def warm_ok(self, first: Outcome, warm: Outcome) -> bool:
        return first.key == warm.key

    def release(self, op: Op) -> None:
        """Untimed clean-up after an op and its warm re-run."""

    def check(self, done: list) -> list[str]:
        """Post-run output checks; one message per failed op."""
        return []

    def at_reference(self, outcome: Outcome) -> bool:
        """Whether the outcome's model-time values feed ``virtual_p50_s``."""
        return True

    def cycle_virtual(self, outcomes: list[Outcome]) -> tuple[float, float]:
        """``(p99, max rate)`` of one cycle's model-time outputs.

        The queries run one after another on the whole cluster, so it
        saturates at one over their mean response time.
        """
        values = sorted(v for o in outcomes for v in o.virtual)
        return percentile(values, 99.0), len(values) / math.fsum(values)

    def finish(self) -> None:
        """Release anything set-up or ops left behind."""


# ----------------------------------------------------------------------
# sweep: Section 6 figure loop through schedule_query
# ----------------------------------------------------------------------
class Sweep(Workload):
    name = "sweep"
    #: The paper's join counts, site counts, and f / eps values (Sec. 6.1).
    SIZES = (10, 20, 30, 40, 50)
    SITES = (10, 20, 40, 60, 80, 100, 120, 140)
    F_EPS = (
        (0.7, 0.5), (0.3, 0.3), (0.5, 0.3), (0.9, 0.3),
        (0.7, 0.1), (0.7, 0.3), (0.7, 0.7), (0.1, 0.3),
    )
    ALGORITHMS = ("treeschedule", "synchronous", "optbound")
    QUERIES = 16
    cycles = 6  # 90 ops
    passes = 2

    def setup(self) -> None:
        from repro.experiments.runner import prepare_workload
        from repro.store import NO_STORE

        self.cohorts = {
            n: prepare_workload(
                n, self.QUERIES, derive(self.seed, "sweep", n), store=NO_STORE
            )
            for n in self.SIZES
        }

    def cycle_args(self, cycle: int) -> list[tuple]:
        args = []
        for i, n in enumerate(self.SIZES):
            for a, algorithm in enumerate(self.ALGORITHMS):
                p = self.SITES[(cycle + 3 * i + a) % len(self.SITES)]
                f, eps = self.F_EPS[(3 * cycle + i + 2 * a) % len(self.F_EPS)]
                # Rotate through the cohort so every run uses each query
                # about equally often.
                q = (cycle * 5 + 3 * i + a) % self.QUERIES
                args.append((algorithm, n, q, p, f, eps))
        return args

    def run(self, algorithm, n, q, p, f, eps) -> Outcome:
        from repro.experiments.runner import schedule_query

        result = schedule_query(
            algorithm, self.cohorts[n][q], p=p, f=f, epsilon=eps
        )
        degrees = ",".join(f"{k}={v}" for k, v in sorted(result.degrees.items()))
        return Outcome(
            key=f"{fmt(result.makespan)}|{degrees}",
            virtual=[result.makespan],
            payload=result,
        )

    def check(self, done: list) -> list[str]:
        from repro.sim.validate import validate_schedule_result

        errors = []
        for op, outcome in done:
            try:
                validate_schedule_result(outcome.payload)
            except Exception as exc:  # every library error is a failed op
                errors.append(f"sweep op {op.args}: {type(exc).__name__}: {exc}")
        return errors


# ----------------------------------------------------------------------
# robust: fault-injection simulation of fixed schedules
# ----------------------------------------------------------------------
class Robust(Workload):
    name = "robust"
    N_JOINS = 20
    P = 20
    F = 0.7
    EPSILON = 0.5
    QUERIES = 16
    INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)
    #: Five TREESCHEDULE ops per SYNCHRONOUS op.  Synchronous schedules,
    #: and any schedule at intensity 0, simulate about ten times faster
    #: than a faulted TREESCHEDULE one; with this mix they are a third of
    #: the ops, so the median falls a quarter of the way into the faulted
    #: mode rather than on the gap between the two.
    ALGORITHM_MIX = ("treeschedule",) * 5 + ("synchronous",)
    cycles = 1  # 90 ops
    passes = 2

    def setup(self) -> None:
        from repro.experiments.runner import prepare_workload, schedule_query
        from repro.sim.policies import SharingPolicy
        from repro.store import NO_STORE

        self.policies = tuple(SharingPolicy)
        queries = prepare_workload(
            self.N_JOINS, self.QUERIES, derive(self.seed, "robust"), store=NO_STORE
        )
        self.results = {
            algorithm: [
                schedule_query(algorithm, q, p=self.P, f=self.F, epsilon=self.EPSILON)
                for q in queries
            ]
            for algorithm in ("treeschedule", "synchronous")
        }

    def cycle_args(self, cycle: int) -> list[tuple]:
        args = []
        cells = len(self.INTENSITIES) * len(self.policies)
        used = {a: cycle * cells * self.ALGORITHM_MIX.count(a) for a in self.ALGORITHM_MIX}
        for intensity in self.INTENSITIES:
            for policy in range(len(self.policies)):
                for slot, algorithm in enumerate(self.ALGORITHM_MIX):
                    # Each algorithm's ops rotate through the cohort, so
                    # every run simulates each schedule about equally often.
                    q = used[algorithm] % self.QUERIES
                    used[algorithm] += 1
                    fault_seed = derive(self.seed, "fault", cycle, intensity, policy, slot)
                    args.append((algorithm, q, intensity, policy, fault_seed))
        return args

    def run(self, algorithm, q, intensity, policy, fault_seed) -> Outcome:
        from repro.experiments.robustness import simulate_result_under_faults
        from repro.sim.faults import FaultSpec
        from repro.sim.simulator import simulate_phased

        result = self.results[algorithm][q]
        sharing = self.policies[policy]
        if intensity == 0.0:
            sim = simulate_phased(result.phased_schedule, sharing)
        else:
            spec = FaultSpec.at_intensity(intensity, epsilon=self.EPSILON)
            sim = simulate_result_under_faults(result, spec, fault_seed, policy=sharing)
        return Outcome(
            key=fmt(sim.response_time),
            virtual=[sim.response_time],
            payload=(sim.response_time, sim.analytic_response_time, sharing.value),
        )

    def check(self, done: list) -> list[str]:
        from repro.sim.validate import validate_schedule_result

        errors = []
        for algorithm, results in self.results.items():
            for q, result in enumerate(results):
                try:
                    validate_schedule_result(result)
                except Exception as exc:  # every library error is a failed op
                    errors.append(f"robust schedule {algorithm}[{q}]: {exc}")
        for op, outcome in done:
            simulated, analytic, policy = outcome.payload
            intensity = op.args[2]
            ok = math.isfinite(simulated) and simulated >= analytic * (1 - _TOL)
            if intensity == 0.0 and policy == "optimal_stretch":
                ok = ok and abs(simulated - analytic) <= _TOL * max(1.0, analytic)
            if not ok:
                errors.append(
                    f"robust op {op.args}: simulated {simulated} vs analytic {analytic}"
                )
        return errors


# ----------------------------------------------------------------------
# plansearch: cold search against an empty store, then a warm re-search
# ----------------------------------------------------------------------
class PlanSearch(Workload):
    name = "plansearch"
    P = 16
    #: (relations, smallest and largest exhaustive plan count accepted).
    #: One slot in the exhaustive regime (<= 512 plans), two in the
    #: local-search regime.  The bands keep each slot's cost narrow, and
    #: the two local-search slots cost about the same, so the median op
    #: falls inside one mode.
    SLOTS = ((6, 42, 120), (8, 513, None), (9, 513, None))
    LIMIT = 512
    #: One decade of base-relation sizes (the paper's range spans two):
    #: plan-space shape, not raw volume, is what this workload varies.
    MIN_TUPLES, MAX_TUPLES = 10_000, 100_000
    cycles = 12  # 36 cold searches, each followed by its warm re-search
    passes = 1  # an op takes a few hundred ms: one pass of more queries
    warm_rerun = True

    def setup(self) -> None:
        import numpy as np
        from repro.plans import random_catalog, random_tree_query
        from repro.search import count_exhaustive_plans

        self.tmp = self.root / ".perfbench_tmp" / f"plansearch-{self.seed}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.queries = []
        for cycle in range(self.n_cycles):
            row = []
            for slot, (n, lo, hi) in enumerate(self.SLOTS):
                rng = np.random.default_rng(derive(self.seed, "plansearch", cycle, slot))
                while True:
                    catalog = random_catalog(
                        n, rng, min_tuples=self.MIN_TUPLES, max_tuples=self.MAX_TUPLES
                    )
                    graph = random_tree_query(catalog, rng)
                    space = count_exhaustive_plans(graph, limit=self.LIMIT)
                    if space >= lo and (hi is None or space <= hi):
                        break
                row.append((graph, catalog))
            self.queries.append(row)

    def cycle_args(self, cycle: int) -> list[tuple]:
        return [(cycle, slot) for slot in range(len(self.SLOTS))]

    def store_path(self, op: Op) -> Path:
        return self.tmp / f"{op.cycle}-{op.index}"

    def prepare(self, op: Op) -> dict:
        from repro.store import ArtifactStore

        shutil.rmtree(self.store_path(op), ignore_errors=True)
        return {"store": ArtifactStore(self.store_path(op))}

    def warm_ok(self, first: Outcome, warm: Outcome) -> bool:
        # The warm re-search must find every artifact the cold one wrote.
        return first.key == warm.key and warm.extra["misses"] == 0

    def release(self, op: Op) -> None:
        shutil.rmtree(self.store_path(op), ignore_errors=True)

    def run(self, cycle, slot, store=None) -> Outcome:
        from repro.search import search_plans

        graph, catalog = self.queries[cycle][slot]
        result = search_plans(graph, catalog, p=self.P, store=store)
        winner = result.winner
        return Outcome(
            key=f"{winner.key}|{fmt(winner.response_time)}",
            virtual=[winner.response_time],
            payload=result,
            extra={"misses": result.stats.store_misses},
        )

    def check(self, done: list) -> list[str]:
        from repro.sim.validate import validate_schedule_result

        errors = []
        for op, outcome in done:
            result = outcome.payload
            try:
                validate_schedule_result(result.schedule)
            except Exception as exc:  # every library error is a failed op
                errors.append(f"plansearch op {op.args}: {exc}")
                continue
            if abs(result.schedule.makespan - result.winner.response_time) > _TOL * max(
                1.0, result.winner.response_time
            ):
                errors.append(f"plansearch op {op.args}: winner schedule disagrees")
        return errors

    def finish(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# serve: open-loop service runs in virtual time over a rate ladder
# ----------------------------------------------------------------------
class Serve(Workload):
    name = "serve"
    P = 20
    MAX_DEGREE = 8
    MAX_CORESIDENT = 3
    DIURNAL = 0.3
    #: Long enough that each run's (template, degree) schedule memo is
    #: amortized over a few hundred jobs.
    DURATION = 6000.0
    #: Offered rates (queries per virtual second) below, near and above
    #: the latency knee; the top rung sheds nothing at this duration.
    LADDER = (0.02, 0.035, 0.05)
    #: Latency at light load varies least between template pools.
    REFERENCE_RATE = 0.02
    #: Virtual p99 latency limit (seconds) defining ``max_rate_qps``.  The
    #: top rung's p99 exceeds it on every pool seen, so the limit binds
    #: inside the ladder, mostly between its upper two rungs.
    LATENCY_LIMIT = 400.0
    cycles = 8  # 24 service runs
    passes = 3

    def setup(self) -> None:
        import repro.serve  # noqa: F401  (the import is part of set-up)

    def prepare(self, op: Op) -> dict:
        # Warm the runner's cache with the op's template pool, as a
        # long-running service would hold it: every run is timed warm,
        # whatever the cache kept from earlier runs.
        from repro.experiments.runner import prepare_workload
        from repro.serve import WorkloadSpec
        from repro.serve.workload import make_templates
        from repro.store import NO_STORE

        for template in make_templates(WorkloadSpec(seed=op.args[0])):
            prepare_workload(template.n_joins, 1, template.seed, store=NO_STORE)
        return {}

    def workload_seed(self, cycle: int) -> int:
        # One template pool per cycle, shared by every rung of it.
        return derive(self.seed, "serve", cycle) % 1_000_000

    def cycle_args(self, cycle: int) -> list[tuple]:
        return [(self.workload_seed(cycle), rate) for rate in self.LADDER]

    def run(self, workload_seed, rate) -> Outcome:
        from repro.serve import (
            GovernorConfig,
            GovernorPolicy,
            SchedulerService,
            ServeConfig,
            WorkloadSpec,
        )
        from repro.store import NO_STORE

        config = ServeConfig(
            p=self.P,
            max_coresident=self.MAX_CORESIDENT,
            workload=WorkloadSpec(
                duration=self.DURATION,
                rate=rate,
                seed=workload_seed,
                diurnal_amplitude=self.DIURNAL,
            ),
            governor=GovernorConfig(
                policy=GovernorPolicy.ADAPTIVE, max_degree=self.MAX_DEGREE
            ),
        )
        report = SchedulerService(config, store=NO_STORE).run()
        summary = report.summary()
        outcomes = summary["outcomes"]
        completed = outcomes.get("completed", 0)
        shed = outcomes.get("shed", 0)
        latencies = sorted(
            r.latency for r in report.records if r.latency is not None
        )
        return Outcome(
            key=repr(sorted_items(summary)),
            virtual=latencies,
            attempted=summary["offered"],
            failed=shed,
            payload=(summary["offered"], completed, shed),
            extra={"rate": rate},
        )

    def at_reference(self, outcome: Outcome) -> bool:
        return outcome.extra["rate"] == self.REFERENCE_RATE

    def cycle_virtual(self, outcomes: list[Outcome]) -> tuple[float, float]:
        """p99 latency at the reference rate and the max rate of one pool."""
        rungs = sorted(
            (o.extra["rate"], percentile(sorted(o.virtual), 99.0), o.failed)
            for o in outcomes
        )
        p99 = next(r[1] for r in rungs if r[0] == self.REFERENCE_RATE)
        return p99, self.max_rate(rungs)

    def max_rate(self, rungs: list[tuple[float, float, int]]) -> float:
        """The rate at which the virtual p99 reaches the limit, nothing shed.

        ``rungs`` are ``(rate, p99, shed)`` in rate order.  The result is
        interpolated linearly between the last rung that meets the limit
        and the next one, so a change that moves the knee shows before it
        crosses a whole rung.  Past the top rung it is extrapolated along
        the last segment, so the metric does not saturate at the ladder's
        end; below the first rung, p99 is taken as proportional to rate.
        """
        limit = self.LATENCY_LIMIT
        met = 0
        while met < len(rungs) and rungs[met][1] <= limit and not rungs[met][2]:
            met += 1
        if met == 0:
            rate, p99, _ = rungs[0]
            return rate * limit / p99
        lo = min(met, len(rungs) - 1) - 1
        (rate, p99, _), (next_rate, next_p99, next_shed) = rungs[lo], rungs[lo + 1]
        if next_shed or next_p99 <= p99:
            return rungs[met - 1][0]
        return rate + (next_rate - rate) * (limit - p99) / (next_p99 - p99)

    def check(self, done: list) -> list[str]:
        errors = []
        for op, outcome in done:
            offered, completed, shed = outcome.payload
            if offered != completed + shed:
                errors.append(
                    f"serve op {op.args}: offered {offered} != completed "
                    f"{completed} + shed {shed}"
                )
        return errors


def sorted_items(value):
    """A dict as nested sorted tuples with digest-stable floats."""
    if isinstance(value, dict):
        return tuple((k, sorted_items(v)) for k, v in sorted(value.items()))
    if isinstance(value, float):
        return fmt(value)
    return value


WORKLOADS = {cls.name: cls for cls in (Sweep, Robust, PlanSearch, Serve)}
