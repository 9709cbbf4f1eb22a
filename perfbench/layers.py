"""Per-layer attribution for the traced benchmark run.

The benchmark never edits the program: it wraps each layer's public
functions from here, at run time, and keeps the resulting spans in
memory.  A span's *self* time is its duration minus the time its child
spans cover, so every second of a traced op lands in exactly one layer
(or in ``untraced`` when no wrapped function is on the stack).

Many functions are bound by ``from ... import`` into several modules
(``coarse_grain_degree`` lives in ``repro.core.cloning`` but is called
through ``repro.engine.driver``, ``repro.baselines.hong`` and others), so
a wrapper replaces *every* binding of the original object in every
loaded ``repro`` module.  Methods are patched once on their class.

Hot functions that run hundreds of thousands of times per op
(``parallel_time``, ``WorkVector`` construction, ``Schedule.place``,
``SiteHeap.pick``) get count-only probes: one dict increment, no clock
reads.  Their cost shows in ``trace_overhead``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: Modules whose bindings the probes patch.  Imported up front so that
#: every ``from ... import`` binding exists before wrappers go in.
MODULES = (
    "repro",
    "repro.experiments.runner",
    "repro.experiments.robustness",
    "repro.experiments.parallel",
    "repro.search",
    "repro.search.search",
    "repro.search.score",
    "repro.search.screen",
    "repro.search.enumerator",
    "repro.search.canonical",
    "repro.serve",
    "repro.serve.service",
    "repro.store",
    "repro.serialization",
    "repro.sim.faults",
)

#: Timed layers: layer -> ((module, attribute), ...).  ``Class.method``
#: attributes are patched on the class.
TIMED = {
    "engine": (
        ("repro.experiments.runner", "schedule_query"),
        ("repro.engine.registry", "RegisteredScheduler.__call__"),
        ("repro.engine.driver", "schedule_phases"),
        ("repro.core.tree_schedule", "tree_schedule"),
    ),
    "core.cloning": (
        ("repro.core.cloning", "response_optimal_degree"),
        ("repro.core.cloning", "coarse_grain_degree"),
        ("repro.core.cloning", "clone_work_vectors"),
        ("repro.core.cloning", "total_work_vector"),
    ),
    "core.packing": (
        ("repro.core.operator_schedule", "operator_schedule"),
        ("repro.core.vector_packing", "pack_vectors"),
    ),
    "core.bounds": (
        ("repro.core.bounds", "lower_bound"),
        ("repro.core.bounds", "lower_bound_family"),
        ("repro.core.bounds", "slowest_operator_time"),
        ("repro.core.bounds", "certify"),
    ),
    "baselines.synchronous": (
        ("repro.baselines.synchronous", "synchronous_schedule"),
    ),
    "baselines.optbound": (
        ("repro.baselines.opt_bound", "opt_bound"),
        ("repro.baselines.opt_bound", "congestion_bound"),
        ("repro.baselines.opt_bound", "critical_path_time"),
    ),
    "sim": (
        ("repro.experiments.robustness", "simulate_result_under_faults"),
        ("repro.sim.simulator", "simulate_phased"),
        ("repro.sim.simulator", "simulate_schedule"),
        ("repro.sim.simulator", "simulate_site"),
    ),
    "sim.fault_plan": (("repro.sim.faults", "FaultPlan.build"),),
    "plans.generate": (("repro.plans.generator", "generate_workload"),),
    "plans.expand": (("repro.plans.operator_tree", "expand_plan"),),
    "cost.annotate": (
        ("repro.cost.annotate", "compute_plan_annotation"),
        ("repro.cost.annotate", "annotate_plan"),
    ),
    "runner.prepare": (("repro.experiments.runner", "prepare_workload"),),
    "search": (
        ("repro.search.search", "search_plans"),
        ("repro.experiments.parallel", "ParallelRunner.run"),
    ),
    "search.enumerate": (
        ("repro.search.enumerator", "count_exhaustive_plans"),
        ("repro.search.enumerator", "enumerate_exhaustive_plans"),
        ("repro.search.enumerator", "greedy_plan"),
        ("repro.search.enumerator", "random_plan"),
        ("repro.search.enumerator", "mutate_plan"),
    ),
    "search.canonical": (
        ("repro.search.canonical", "plan_key"),
        ("repro.search.canonical", "canonical_plan"),
        ("repro.search.canonical", "plan_payload"),
        ("repro.search.canonical", "plan_from_payload"),
    ),
    "search.screen": (("repro.search.screen", "candidate_lower_bounds"),),
    "search.score": (
        ("repro.search.score", "candidate_point"),
        ("repro.search.score", "evaluate_candidate"),
        ("repro.search.score", "schedule_candidate"),
    ),
    "store.key": (("repro.store.artifact_store", "ArtifactStore.key"),),
    "store.get": (("repro.store.artifact_store", "ArtifactStore.get"),),
    "store.put": (("repro.store.artifact_store", "ArtifactStore.put"),),
    "serve": (("repro.serve.service", "SchedulerService.run"),),
    "serve.admission": (
        ("repro.serve.admission", "AdmissionController.submit"),
        ("repro.serve.admission", "AdmissionController.pop"),
        ("repro.serve.admission", "AdmissionController.drain_intake"),
    ),
    "serve.pool": (
        ("repro.serve.pool", "SitePool.install"),
        ("repro.serve.pool", "SitePool.retire"),
        ("repro.serve.pool", "SitePool.has_capacity"),
        ("repro.serve.pool", "SitePool.set_capacity"),
    ),
    "serve.executor": (
        ("repro.serve.executor", "FluidExecutor.launch"),
        ("repro.serve.executor", "FluidExecutor.notify_rates_changed"),
    ),
}

#: Coroutine functions: each resume of the coroutine is one span.
TIMED_COROUTINES = {
    "serve.executor": (("repro.serve.executor", "FluidExecutor.run"),),
}

#: Count-only probes: counter -> (module, attribute).
COUNTED = {
    "tpar_evals": ("repro.core.cloning", "parallel_time"),
    "work_vectors.init": ("repro.core.work_vector", "WorkVector.__init__"),
    "work_vectors.trusted": ("repro.core.work_vector", "WorkVector._from_trusted"),
    "clones_placed": ("repro.core.schedule", "Schedule.place"),
}


class Probe:
    """The in-memory span ledger: per-layer self time, calls and counts."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [layer, start, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        #: Seconds covered by outermost spans (the complement is untraced).
        self.covered_s = 0.0
        #: Inclusive seconds and count of ``engine`` calls under ``serve``.
        self.serve_schedule_s = 0.0
        self.serve_schedule_calls = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def enter(self, layer: str) -> list:
        frame = [layer, 0.0, 0.0]
        self.stack.append(frame)
        self.depth[layer] += 1
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list) -> float:
        duration = self.clock() - frame[1]
        self.stack.pop()
        layer = frame[0]
        self.self_s[layer] += duration - frame[2]
        self.depth[layer] -= 1
        if layer == "engine" and self.depth["engine"] == 0 and self.depth["serve"]:
            self.serve_schedule_s += duration
            self.serve_schedule_calls += 1
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.covered_s += duration
        return duration

    def snapshot(self) -> dict:
        """Self times and covered time, for diffing two points in time."""
        return {"self_s": dict(self.self_s), "covered_s": self.covered_s}

    # -- wrappers ------------------------------------------------------
    def timed(self, layer: str, name: str, fn):
        probe = self
        calls = self.calls
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            state = before(probe) if before is not None else None
            frame = probe.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = probe.exit(frame)
            if after is not None:
                after(probe, result, args, kwargs, state, duration)
            return result

        return wrapper

    def timed_coroutine(self, layer: str, name: str, fn):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe.calls[name] += 1
            return _TimedAwaitable(probe, layer, fn(*args, **kwargs))

        return wrapper

    def counted(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function in every module that binds it."""
        for module in MODULES:
            importlib.import_module(module)
        import repro

        repro.available_algorithms()  # loads the lazily registered algorithms
        for layer, targets in TIMED.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name, layer=layer: (
                    self.timed(layer, name, fn)
                ))
        for layer, targets in TIMED_COROUTINES.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name, layer=layer: (
                    self.timed_coroutine(layer, name, fn)
                ))
        for counter, (module, attr) in COUNTED.items():
            self._patch(module, attr, lambda fn, name, counter=counter: (
                self.counted(counter, fn)
            ))
        self._patch_heap_scans()
        self._patch_loop_advances()

    def uninstall(self) -> None:
        """Put every original binding back (output checks run unwrapped)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = sys.modules[module_name]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__, name))
            else:
                replacement = make(raw, name)
            self._restore.append((cls, method, raw))
            setattr(cls, method, replacement)
            return
        original = getattr(module, attr)
        replacement = make(original, name)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, replacement)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"no binding of {name} found")

    def _patch_heap_scans(self) -> None:
        from repro.core.placement_heap import SiteHeap

        raw = SiteHeap.__dict__["pick"]
        counts = self.counts

        @functools.wraps(raw)
        def pick(heap, allowable):
            before = heap.scans
            try:
                return raw(heap, allowable)
            finally:
                counts["placement_scans"] += heap.scans - before

        self._restore.append((SiteHeap, "pick", raw))
        SiteHeap.pick = pick

    def _patch_loop_advances(self) -> None:
        from repro.serve.clock import VirtualTimeEventLoop

        raw = VirtualTimeEventLoop.close
        counts = self.counts

        @functools.wraps(raw)
        def close(loop):
            counts["loop_advances"] += loop.advances
            return raw(loop)

        self._restore.append((VirtualTimeEventLoop, "close", raw))
        VirtualTimeEventLoop.close = close


class _TimedAwaitable:
    """Time every resume of a coroutine as one span of ``layer``."""

    def __init__(self, probe: Probe, layer: str, coro) -> None:
        self.probe, self.layer, self.coro = probe, layer, coro

    def __await__(self):
        inner = self.coro.__await__()
        send, error = None, None
        while True:
            frame = self.probe.enter(self.layer)
            try:
                yielded = inner.throw(error) if error is not None else inner.send(send)
            except StopIteration as stop:
                self.probe.exit(frame)
                return stop.value
            except BaseException:
                self.probe.exit(frame)
                raise
            self.probe.exit(frame)
            send, error = None, None
            try:
                send = yield yielded
            except BaseException as exc:  # re-raised inside the coroutine
                error = exc


# -- count hooks around wrapped calls ------------------------------------
# ``after(probe, result, args, kwargs, state, duration)`` runs when a wrapped
# call returns; ``state`` is what the optional ``before(probe)`` returned.
_GENERATE = "repro.plans.generator.generate_workload"
_ANNOTATE = "repro.cost.annotate.compute_plan_annotation"


def _work_done(probe):
    return probe.calls[_GENERATE] + probe.calls[_ANNOTATE]


def _after_prepare(probe, result, args, kwargs, state, duration):
    # A prepare call that neither generated nor annotated was served
    # entirely from the runner's in-process LRUs.
    probe.counts["prepare_hits"] += _work_done(probe) == state


def _after_generate(probe, result, args, kwargs, state, duration):
    probe.counts["queries_generated"] += len(result)


def _after_annotate(probe, result, args, kwargs, state, duration):
    probe.counts["operators_annotated"] += len(result)


def _after_simulate(probe, result, args, kwargs, state, duration):
    mode = "faulted" if kwargs.get("plan") is not None else "faultfree"
    probe.counts[f"sim.{mode}_s"] += duration
    probe.counts["rate_intervals"] += sum(
        len(site.intervals) for phase in result.phases for site in phase.sites
    )


def _after_search(probe, result, args, kwargs, state, duration):
    stats = result.stats
    for field in ("enumerated", "unique", "pruned", "scored"):
        probe.counts[field] += getattr(stats, field)


def _after_screen(probe, result, args, kwargs, state, duration):
    probe.counts["screened"] += len(args[0])


def _after_get(probe, result, args, kwargs, state, duration):
    probe.counts["store_hits"] += result is not None


def _after_put(probe, result, args, kwargs, state, duration):
    probe.counts["bytes_written"] += result.stat().st_size


def _after_serve(probe, result, args, kwargs, state, duration):
    summary = result.summary()
    outcomes = summary["outcomes"]
    completed = outcomes.get("completed", 0)
    counts = probe.counts
    counts["serve.runs"] += 1
    counts["serve.offered"] += summary["offered"]
    counts["serve.shed"] += outcomes.get("shed", 0)
    counts["serve.deferred"] += summary["deferred_then_run"]
    counts["serve.completed"] += completed
    counts["serve.wait_sum"] += summary["latency"]["all"]["mean_wait"] * completed
    counts["serve.degree_sum"] += summary["degrees"]["mean"] * completed
    counts["serve.utilization_sum"] += summary["pool"]["site_utilization"]
    counts["serve.placement_scans"] += summary["pool"]["placement_scans"]


HOOKS = {
    "repro.experiments.runner.prepare_workload": (_work_done, _after_prepare),
    _GENERATE: (None, _after_generate),
    _ANNOTATE: (None, _after_annotate),
    "repro.sim.simulator.simulate_phased": (None, _after_simulate),
    "repro.search.search.search_plans": (None, _after_search),
    "repro.search.screen.candidate_lower_bounds": (None, _after_screen),
    "repro.store.artifact_store.ArtifactStore.get": (None, _after_get),
    "repro.store.artifact_store.ArtifactStore.put": (None, _after_put),
    "repro.serve.service.SchedulerService.run": (None, _after_serve),
}


# -- per-layer metrics ----------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(probe: Probe) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except ``import.*`` and the run-health pair."""
    s, c, n = probe.self_s, probe.counts, probe.calls

    def calls(module: str, attrs: tuple[str, ...]) -> int:
        return sum(n.get(f"{module}.{a}", 0) for a in attrs)

    cloning = "repro.core.cloning"
    admission = ("AdmissionController.submit", "AdmissionController.pop",
                 "AdmissionController.drain_intake")
    runs = c["serve.runs"]
    completed = c["serve.completed"]
    gets = calls("repro.store.artifact_store", ("ArtifactStore.get",))
    prepares = n.get("repro.experiments.runner.prepare_workload", 0)
    return {
        "plans.generate_s": (s["plans.generate"], "s"),
        "plans.queries_generated": (c["queries_generated"], "count"),
        "cost.annotate_s": (s["cost.annotate"], "s"),
        "cost.operators_annotated": (c["operators_annotated"], "count"),
        "runner.prepare_s": (s["runner.prepare"], "s"),
        "runner.lru_hit_ratio": (_ratio(c["prepare_hits"], prepares), "ratio"),
        "core.cloning.self_s": (s["core.cloning"], "s"),
        "core.cloning.degree_calls": (
            calls(cloning, ("response_optimal_degree",)), "count"),
        "core.cloning.tpar_evals": (c["tpar_evals"], "count"),
        "core.work_vectors": (
            c["work_vectors.init"] + c["work_vectors.trusted"], "count"),
        "core.packing.self_s": (s["core.packing"], "s"),
        "core.packing.calls": (
            calls("repro.core.operator_schedule", ("operator_schedule",))
            + calls("repro.core.vector_packing", ("pack_vectors",)), "count"),
        "core.packing.clones_placed": (c["clones_placed"], "count"),
        "core.packing.placement_scans": (c["placement_scans"], "count"),
        "core.bounds.self_s": (s["core.bounds"], "s"),
        "baselines.synchronous_s": (s["baselines.synchronous"], "s"),
        "baselines.optbound_s": (s["baselines.optbound"], "s"),
        "engine.self_s": (s["engine"], "s"),
        "sim.self_s": (s["sim"], "s"),
        "sim.calls": (calls("repro.sim.simulator", ("simulate_phased",)), "count"),
        "sim.faultfree_s": (c["sim.faultfree_s"], "s"),
        "sim.faulted_s": (c["sim.faulted_s"], "s"),
        "sim.rate_intervals": (c["rate_intervals"], "count"),
        "sim.fault_plan_s": (s["sim.fault_plan"], "s"),
        "plans.expand_s": (s["plans.expand"], "s"),
        "plans.expand_calls": (
            calls("repro.plans.operator_tree", ("expand_plan",)), "count"),
        "search.self_s": (s["search"], "s"),
        "search.enumerate_s": (s["search.enumerate"], "s"),
        "search.enumerated": (c["enumerated"], "count"),
        "search.dedupe_ratio": (_ratio(c["unique"], c["enumerated"]), "ratio"),
        "search.score_s": (s["search.score"], "s"),
        "search.scored": (c["scored"], "count"),
        "search.canonical_s": (s["search.canonical"], "s"),
        "search.plan_keys": (calls("repro.search.canonical", ("plan_key",)), "count"),
        "search.screen_s": (s["search.screen"], "s"),
        "search.screened": (c["screened"], "count"),
        "search.prune_ratio": (_ratio(c["pruned"], c["unique"]), "ratio"),
        "store.key_s": (s["store.key"], "s"),
        "store.get_s": (s["store.get"], "s"),
        "store.gets": (gets, "count"),
        "store.put_s": (s["store.put"], "s"),
        "store.puts": (calls("repro.store.artifact_store", ("ArtifactStore.put",)),
                       "count"),
        "store.hit_ratio": (_ratio(c["store_hits"], gets), "ratio"),
        "store.bytes_written": (c["bytes_written"], "bytes"),
        "serve.self_s": (s["serve"], "s"),
        "serve.schedule_s": (probe.serve_schedule_s, "s"),
        "serve.schedule_calls": (probe.serve_schedule_calls, "count"),
        "serve.admission_s": (s["serve.admission"], "s"),
        "serve.admission_ops": (calls("repro.serve.admission", admission), "count"),
        "serve.pool_s": (s["serve.pool"], "s"),
        "serve.executor_s": (s["serve.executor"], "s"),
        "serve.loop_advances": (c["loop_advances"], "count"),
        "serve.shed": (c["serve.shed"], "count"),
        "serve.deferred": (c["serve.deferred"], "count"),
        "serve.mean_wait_s": (_ratio(c["serve.wait_sum"], completed), "s"),
        "serve.mean_degree": (_ratio(c["serve.degree_sum"], completed), "count"),
        "serve.site_utilization": (_ratio(c["serve.utilization_sum"], runs), "ratio"),
        "serve.placement_scans": (c["serve.placement_scans"], "count"),
    }


#: Layer families whose self-time shares the traced run compares.
FAMILIES = {
    "core": ("core.cloning", "core.packing"),
    "sim": ("sim", "sim.fault_plan"),
    "search+store": ("search", "search.enumerate", "search.canonical",
                     "search.screen", "search.score", "store.key", "store.get",
                     "store.put"),
    "serve": ("serve", "serve.admission", "serve.pool", "serve.executor"),
}

#: Per workload: the family that should hold the largest self-time share.
LARGEST = {"sweep": "core", "robust": "sim", "plansearch": "search+store",
           "serve": "serve"}

#: Per workload: metrics that must read non-zero (the layer ran) ...
EXPECTED = {
    "sweep": (
        "plans.generate_s", "plans.queries_generated", "cost.annotate_s",
        "cost.operators_annotated", "runner.prepare_s", "core.cloning.self_s",
        "core.cloning.degree_calls", "core.cloning.tpar_evals",
        "core.work_vectors", "core.packing.self_s", "core.packing.calls",
        "core.packing.clones_placed", "core.packing.placement_scans",
        "baselines.synchronous_s", "baselines.optbound_s", "engine.self_s",
    ),
    "robust": (
        "plans.generate_s", "cost.annotate_s", "runner.prepare_s",
        "sim.self_s", "sim.calls", "sim.faultfree_s", "sim.faulted_s",
        "sim.rate_intervals", "sim.fault_plan_s",
    ),
    "plansearch": (
        "plans.expand_s", "plans.expand_calls", "search.self_s",
        "search.enumerate_s", "search.enumerated", "search.score_s",
        "search.scored", "search.canonical_s", "search.plan_keys",
        "search.screen_s", "search.screened", "store.get_s", "store.gets",
        "store.put_s", "store.puts", "store.hit_ratio", "store.bytes_written",
    ),
    "serve": (
        "runner.prepare_s", "runner.lru_hit_ratio", "serve.self_s",
        "serve.schedule_s", "serve.schedule_calls", "serve.admission_s",
        "serve.admission_ops", "serve.pool_s", "serve.executor_s",
        "serve.loop_advances", "serve.mean_degree", "serve.site_utilization",
        "serve.placement_scans",
    ),
}

#: ... and metric-name prefixes that must read zero (the layer never ran).
ABSENT = {
    "sweep": ("sim.", "search.", "store.", "serve."),
    "robust": ("search.", "store.", "serve."),
    "plansearch": ("sim.", "serve.", "plans.generate", "runner."),
    "serve": ("sim.", "search.", "store."),
}


def coverage_errors(workload: str, metrics: dict[str, tuple[float, str]]) -> list[str]:
    """The wrapper self-check: expected layers ran, absent ones did not."""
    errors = [
        f"{workload}: {name} reads 0 but the workload exercises it"
        for name in EXPECTED[workload]
        if not metrics[name][0]
    ]
    errors += [
        f"{workload}: {name} reads {value} but the layer should be absent"
        for name, (value, _) in metrics.items()
        if value and name.startswith(ABSENT[workload])
    ]
    return errors


def family_shares(self_s: dict[str, float], wall: float) -> dict[str, float]:
    """Self-time share of the traced ops per family and per other layer."""
    shares = {}
    grouped = set()
    for family, layers in FAMILIES.items():
        shares[family] = _ratio(sum(self_s.get(layer, 0.0) for layer in layers), wall)
        grouped.update(layers)
    for layer, seconds in self_s.items():
        if layer not in grouped:
            shares[layer] = _ratio(seconds, wall)
    return shares
