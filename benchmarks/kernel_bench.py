"""Kernel micro-benchmark: pack_vectors wall-clock trajectory.

Times the optimized ``pack_vectors`` kernel (lazy site heap, cached
vector stats, incremental site loads) and the retained naive reference
kernel (``pack_vectors_reference``: full allowable-list rescan with
loads recomputed from the placed clones) on the grid

    n ∈ {100, 1000, 5000} clones × p ∈ {8, 64} sites, d = 3,

plus three headline cases:

* the **scale point** ``n=10000, p=1000`` — the paper's problem sizes
  times ten, timed warm (one untimed warm-up rep first) through the
  shelf packer;
* the **heterogeneous scale point** — the same ``n=10000, p=1000``
  problem over three site classes (``fast:200:4.0`` / ``std:600:1.0``
  / ``slow:200:0.5``), exercising the capacity-normalized heap key;
  the target is a warm pack under 150 ms;
* the **reschedule case** at ``n=1000, p=64`` — repairing a 3-site
  failure via :func:`repro.core.reschedule.reschedule_schedule` on a
  fresh copy per rep (the copy is taken outside the timed region)
  versus cold re-packing the full shelf.

Medians land in ``BENCH_kernels.json`` at the repository root so the
perf trajectory is recorded commit over commit.  The committed file also
carries the frozen pre-optimization (PR 1) measurements of the original
kernel, taken on the same grid before this refactor landed — the
"before" of the before/after speedup claim.

Usage::

    python benchmarks/kernel_bench.py --write            # refresh BENCH_kernels.json
    python benchmarks/kernel_bench.py --check [--threshold 5.0]
        [--reschedule-floor 4.0]
        # regression gate: fail when the optimized kernel at the guard
        # point (n=1000, p=64) or the scale point (n=10000, p=1000)
        # exceeds threshold x the committed median, or when the repair
        # speedup over a cold re-pack falls below the floor

The check threshold is deliberately generous (CI machines are noisy);
it exists to catch order-of-magnitude regressions — e.g. losing the
heap, or reintroducing per-query load recomputation — not 20%% drift.
The reschedule floor is likewise far below the typically measured ~10x
for the same reason.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (  # noqa: E402
    CloneItem,
    ConvexCombinationOverlap,
    ScheduleDelta,
    WorkVector,
    pack_vectors,
    pack_vectors_reference,
    parse_cluster_spec,
    reschedule_schedule,
)

BENCH_PATH = REPO_ROOT / "BENCH_kernels.json"
SCHEMA = "repro-bench-kernels/3"
D = 3
SIZES = (100, 1000, 5000)
SITE_COUNTS = (8, 64)
#: The guard point of the CI perf-smoke check.
GUARD_POINT = "n=1000,p=64"
#: The scale target: 10^4 clones over 10^3 sites, warm.
SCALE_POINT = "n=10000,p=1000"
SCALE_N, SCALE_P = 10_000, 1_000
#: The heterogeneous scale target: same size over three site classes.
HETERO_SCALE_POINT = "n=10000,p=1000,classes=3"
HETERO_CLUSTER = "fast:200:4.0,std:600:1.0,slow:200:0.5"
#: PR 9 acceptance: the heterogeneous warm pack stays under this bound
#: (checked against wall time directly, with --threshold slack for CI
#: host noise).
HETERO_BUDGET_S = 0.150
#: The reschedule case repairs this delta at the guard point's size.
RESCHEDULE_N, RESCHEDULE_P = 1000, 64
RESCHEDULE_REMOVED_SITES = (3, 17, 42)
OVERLAP = ConvexCombinationOverlap(0.5)

#: Median pack_vectors wall-clock of the ORIGINAL kernel (PR 1, commit
#: 1094e8d: linear allowable-list scan, uncached WorkVector.length/total,
#: recomputed min per clone), measured on this container before the PR 2
#: refactor.  Frozen here because the original code no longer exists in
#: the tree; the live "before" proxy is pack_vectors_reference.
PRE_PR2_SECONDS = {
    "n=100,p=8": 0.0013712,
    "n=100,p=64": 0.0049045,
    "n=1000,p=8": 0.0172445,
    "n=1000,p=64": 0.0562569,
    "n=5000,p=8": 0.0891891,
    "n=5000,p=64": 0.2898753,
}

#: The naive reference recomputes site loads from every placed clone on
#: every scan, so it is O(n^2·d) per site sweep — timing it above this
#: clone count adds minutes for no extra information.
REFERENCE_MAX_N = 1000


def make_items(n: int, d: int = D, seed: int = 0) -> list[CloneItem]:
    """Deterministic mixed-resource clone set (one clone per operator)."""
    rng = random.Random(seed)
    return [
        CloneItem(
            operator=f"op{i}",
            clone_index=0,
            work=WorkVector([rng.uniform(0.1, 10.0) for _ in range(d)]),
        )
        for i in range(n)
    ]


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_grid(include_reference: bool = True) -> dict[str, dict[str, float]]:
    """Time the kernel grid; returns per-point medians and speedups."""
    points: dict[str, dict[str, float]] = {}
    for n in SIZES:
        items = make_items(n)
        reps = 5 if n <= 1000 else 3
        for p in SITE_COUNTS:
            key = f"n={n},p={p}"
            entry: dict[str, float] = {
                "optimized_s": _median_seconds(
                    lambda: pack_vectors(items, p=p, overlap=OVERLAP), reps
                )
            }
            if include_reference and n <= REFERENCE_MAX_N:
                entry["reference_s"] = _median_seconds(
                    lambda: pack_vectors_reference(items, p=p, overlap=OVERLAP), reps
                )
                entry["speedup_vs_reference"] = (
                    entry["reference_s"] / entry["optimized_s"]
                )
            if key in PRE_PR2_SECONDS:
                entry["pre_pr2_s"] = PRE_PR2_SECONDS[key]
                entry["speedup_vs_pre_pr2"] = (
                    PRE_PR2_SECONDS[key] / entry["optimized_s"]
                )
            points[key] = entry
    return points


def run_scale(reps: int = 5) -> dict[str, float]:
    """Time the warm scale point (one untimed warm-up rep first).

    The warm-up fills allocator pools and warms the caches so
    the recorded medians reflect steady-state shelf packing, which is
    what the "<0.1 s at n=10^4, p=10^3" target is stated against.
    """
    items = make_items(SCALE_N)
    pack_vectors(items, p=SCALE_P, overlap=OVERLAP)  # warm-up, untimed
    return {
        "optimized_s": _median_seconds(
            lambda: pack_vectors(items, p=SCALE_P, overlap=OVERLAP), reps
        )
    }


def run_scale_hetero(reps: int = 5) -> dict[str, float]:
    """Time the warm heterogeneous scale point (three site classes).

    Same problem size as :func:`run_scale`, but the 10^3 sites span a
    4.0/1.0/0.5 capacity spread, so every placement goes through the
    capacity-normalized argmin instead of the plain least-loaded one.
    """
    spec = parse_cluster_spec(HETERO_CLUSTER)
    assert spec.p == SCALE_P
    capacities = spec.capacities()
    items = make_items(SCALE_N)
    pack_vectors(
        items, p=SCALE_P, overlap=OVERLAP, capacities=capacities
    )  # warm-up, untimed
    return {
        "cluster": HETERO_CLUSTER,
        "optimized_s": _median_seconds(
            lambda: pack_vectors(
                items, p=SCALE_P, overlap=OVERLAP, capacities=capacities
            ),
            reps,
        ),
    }


def run_reschedule(reps: int = 5) -> dict[str, float]:
    """Repair-vs-cold-repack at the guard point's problem size.

    Each repair rep runs on a fresh copy of the packed base schedule;
    the copy is taken *outside* the timed region, so ``reschedule_s``
    is the cost of the repair itself (drain + re-place of the displaced
    clones), the quantity the O(moved · log p) claim is about.
    """
    items = make_items(RESCHEDULE_N)
    base = pack_vectors(items, p=RESCHEDULE_P, overlap=OVERLAP)
    delta = ScheduleDelta(remove_sites=RESCHEDULE_REMOVED_SITES)
    cold_s = _median_seconds(
        lambda: pack_vectors(items, p=RESCHEDULE_P, overlap=OVERLAP), reps
    )
    times = []
    for _ in range(reps):
        copy = base.copy()  # untimed: repair cost only
        start = time.perf_counter()
        reschedule_schedule(copy, delta, overlap=OVERLAP)
        times.append(time.perf_counter() - start)
    reschedule_s = statistics.median(times)
    return {
        "cold_repack_s": cold_s,
        "reschedule_s": reschedule_s,
        "removed_sites": len(RESCHEDULE_REMOVED_SITES),
        "speedup_vs_cold_repack": cold_s / reschedule_s,
    }


def write_bench(path: pathlib.Path = BENCH_PATH) -> dict:
    payload = {
        "schema": SCHEMA,
        "kernel": "pack_vectors (sort=MAX_COMPONENT, rule=LEAST_LOADED_LENGTH)",
        "d": D,
        "guard_point": GUARD_POINT,
        "scale_point": SCALE_POINT,
        "generated_by": "benchmarks/kernel_bench.py --write",
        "points": run_grid(),
        "scale": {
            SCALE_POINT: run_scale(),
            HETERO_SCALE_POINT: run_scale_hetero(),
        },
        "reschedule": {
            f"n={RESCHEDULE_N},p={RESCHEDULE_P}": run_reschedule()
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def check_regression(
    threshold: float,
    reschedule_floor: float = 4.0,
    path: pathlib.Path = BENCH_PATH,
) -> tuple[bool, str]:
    """Compare fresh guard/scale/reschedule numbers against the baseline."""
    try:
        committed = json.loads(path.read_text())
    except FileNotFoundError:
        return False, f"no committed baseline at {path}; run --write first"
    ok = True
    lines = []

    baseline = committed["points"][GUARD_POINT]["optimized_s"]
    items = make_items(1000)
    current = _median_seconds(lambda: pack_vectors(items, p=64, overlap=OVERLAP), 5)
    ratio = current / baseline
    ok &= ratio <= threshold
    lines.append(
        f"pack_vectors {GUARD_POINT}: current={current:.6f}s "
        f"baseline={baseline:.6f}s ratio={ratio:.2f}x (threshold {threshold:.1f}x)"
    )

    scale_baseline = committed["scale"][SCALE_POINT]["optimized_s"]
    scale_current = run_scale(reps=3)["optimized_s"]
    scale_ratio = scale_current / scale_baseline
    ok &= scale_ratio <= threshold
    lines.append(
        f"pack_vectors {SCALE_POINT} (warm): current={scale_current:.6f}s "
        f"baseline={scale_baseline:.6f}s ratio={scale_ratio:.2f}x "
        f"(threshold {threshold:.1f}x)"
    )

    hetero_current = run_scale_hetero(reps=3)["optimized_s"]
    hetero_budget = HETERO_BUDGET_S * threshold
    ok &= hetero_current <= hetero_budget
    lines.append(
        f"pack_vectors {HETERO_SCALE_POINT} (warm): "
        f"current={hetero_current:.6f}s "
        f"budget={HETERO_BUDGET_S:.3f}s x {threshold:.1f} noise allowance"
    )

    fresh = run_reschedule(reps=3)
    speedup = fresh["speedup_vs_cold_repack"]
    ok &= speedup >= reschedule_floor
    lines.append(
        f"reschedule n={RESCHEDULE_N},p={RESCHEDULE_P}: "
        f"repair={fresh['reschedule_s']:.6f}s "
        f"cold={fresh['cold_repack_s']:.6f}s speedup={speedup:.1f}x "
        f"(floor {reschedule_floor:.1f}x)"
    )
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="refresh BENCH_kernels.json"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when the guard point regresses past --threshold",
    )
    parser.add_argument("--threshold", type=float, default=5.0)
    parser.add_argument(
        "--reschedule-floor",
        type=float,
        default=4.0,
        help="minimum acceptable repair speedup over a cold re-pack",
    )
    args = parser.parse_args(argv)
    if not (args.write or args.check):
        parser.error("choose --write and/or --check")
    status = 0
    if args.write:
        payload = write_bench()
        for key, entry in sorted(payload["points"].items()):
            speed = entry.get("speedup_vs_pre_pr2")
            extra = f"  ({speed:.1f}x vs pre-PR2)" if speed else ""
            print(f"{key:14s} optimized {entry['optimized_s']:.6f}s{extra}")
        scale = payload["scale"][SCALE_POINT]
        print(f"{SCALE_POINT:14s} optimized {scale['optimized_s']:.6f}s (warm)")
        hetero = payload["scale"][HETERO_SCALE_POINT]
        print(
            f"{HETERO_SCALE_POINT} optimized {hetero['optimized_s']:.6f}s "
            f"(warm, {HETERO_CLUSTER})"
        )
        resched = payload["reschedule"][f"n={RESCHEDULE_N},p={RESCHEDULE_P}"]
        print(
            f"reschedule n={RESCHEDULE_N},p={RESCHEDULE_P}: "
            f"repair {resched['reschedule_s']:.6f}s vs cold "
            f"{resched['cold_repack_s']:.6f}s "
            f"({resched['speedup_vs_cold_repack']:.1f}x)"
        )
        print(f"wrote {BENCH_PATH}")
    if args.check:
        ok, message = check_regression(args.threshold, args.reschedule_floor)
        print(message)
        if not ok:
            print("PERF REGRESSION: guard point exceeded threshold", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
