"""One benchmark process: set up a workload, then measure, trace or digest it.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
the moment set-up is done (the parent times set-up from its side, from
before the interpreter started), then one JSON line with the run's
measurements.

Modes:

* ``setup`` -- exit right after set-up (extra set-up samples).
* ``measure`` -- run the workload's fixed op list ``passes`` times,
  untraced; each op's time is its fastest pass.
* ``trace`` -- run the op list once untraced, then once more under the
  layer probes; report the per-layer ledger.
* ``reference`` -- print the digest of the first cycle's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostpace import REFERENCE_PACE_S, pace  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402

#: The window the workloads' cycle counts are sized for.
REFERENCE_SECONDS = 15.0


def cycles_for(cls, seconds: float) -> int:
    """The workload's cycle count scaled to a window of ``seconds``."""
    return max(1, round(cls.cycles * seconds / REFERENCE_SECONDS))


def tail_rank(n: int) -> int:
    """1-based rank of the highest sample with at least ten beyond it.

    Never below the median's rank: with 20 samples or fewer the tail is
    the median.
    """
    return max(math.ceil(n / 2), n - 10, 1)


def digest(keys: list[str]) -> str:
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:32]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, passes: int, probe=None) -> dict:
    """Run the workload's op list ``passes`` times; keep each op's best time.

    An op's time is its wall time scaled to the reference host pace
    (``elapsed * REFERENCE_PACE_S / pace``, with the pace probed right
    before and right after it), and its best is the fastest pass.  Raw
    wall times are summed into ``op_wall``.

    The first pass's outputs are kept for the checks; every later pass
    must reproduce them.  Peak RSS is read after the first pass, so
    repeats add nothing to it.  With a ``probe``, the layer self times
    and covered time of the timed calls (not of the untimed per-op
    preparation) are summed into ``op_self_s`` and ``op_covered_s``.
    """
    clock = time.perf_counter
    ops = workload.ops()
    best = [math.inf] * len(ops)
    best_warm = [math.inf] * len(ops)
    first = []
    errors = []
    attempted = failed = 0
    rss_mb = None
    op_wall = op_covered = 0.0
    op_self: dict[str, float] = {}

    def timed(op, kwargs):
        nonlocal op_wall, op_covered
        before = probe.snapshot() if probe is not None else None
        host_pace = pace()
        t0 = clock()
        outcome = workload.run(*op.args, **kwargs)
        elapsed = clock() - t0
        host_pace = (host_pace + pace()) / 2.0
        op_wall += elapsed
        if probe is not None:
            after = probe.snapshot()
            op_covered += after["covered_s"] - before["covered_s"]
            for layer, total in after["self_s"].items():
                delta = total - before["self_s"].get(layer, 0.0)
                op_self[layer] = op_self.get(layer, 0.0) + delta
        return outcome, elapsed * REFERENCE_PACE_S / host_pace

    for n in range(passes):
        for i, op in enumerate(ops):
            kwargs = workload.prepare(op)
            outcome, elapsed = timed(op, kwargs)
            best[i] = min(best[i], elapsed)
            attempted += outcome.attempted
            failed += outcome.failed
            if workload.warm_rerun:
                warm, elapsed = timed(op, kwargs)
                best_warm[i] = min(best_warm[i], elapsed)
                attempted += warm.attempted
                failed += warm.failed
                if not workload.warm_ok(outcome, warm):
                    failed += warm.attempted
                    errors.append(f"{workload.name} op {op.args}: warm re-run differs")
            workload.release(op)
            if n == 0:
                first.append(outcome)
            elif outcome.key != first[i].key:
                failed += outcome.attempted
                errors.append(f"{workload.name} op {op.args}: pass {n + 1} output differs")
        if n == 0:
            rss_mb = peak_rss_mb()
    return {
        "op_wall": op_wall,
        "op_self_s": op_self,
        "op_covered_s": op_covered,
        "rss_mb": rss_mb,
        "done": list(zip(ops, first)),
        "best": best,
        "best_warm": best_warm,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def virtual_metrics(workload, done: list) -> dict[str, float]:
    """Model-time metrics of the first pass's outputs.

    ``virtual_p50_s`` pools every value (for ``serve``, every latency at
    the reference rate).  ``virtual_p99_s`` and ``max_rate_qps`` are taken
    per cycle (for ``serve``, one template pool), then the median over the
    cycles: a few heavy instances would set a p99 pooled over all ops,
    while the median over cycles is what a typical cycle sees.
    """
    pooled = sorted(v for _, o in done if workload.at_reference(o) for v in o.virtual)
    per_cycle = [
        workload.cycle_virtual([o for op, o in done if op.cycle == cycle])
        for cycle in range(workload.n_cycles)
    ]
    return {
        "virtual_p50_s": percentile(pooled, 50.0),
        "virtual_p99_s": statistics.median(p99 for p99, _ in per_cycle),
        "max_rate_qps": statistics.median(rate for _, rate in per_cycle),
    }


def measure(workload) -> dict:
    run = run_passes(workload, workload.passes)
    done = run["done"]
    units = [o.attempted for _, o in done]
    op_ms = sorted(1e3 * s / u for s, u in zip(run["best"], units))
    rank = tail_rank(len(op_ms))
    if workload.warm_rerun:
        rerun_ms = percentile(sorted(1e3 * s for s in run["best_warm"]), 50.0)
    else:
        rerun_ms = percentile(op_ms, 50.0)
    metrics = {
        "peak_rss_mb": run["rss_mb"],
        "ops_per_s": sum(units) / math.fsum(run["best"]),
        "op_ms_p50": percentile(op_ms, 50.0),
        "op_ms_tail": op_ms[rank - 1],
        "rerun_ms_p50": rerun_ms,
        **virtual_metrics(workload, done),
    }
    errors = check(workload, done)
    return {
        "metrics": metrics,
        "attempted": run["attempted"],
        "failed": run["failed"] + len(errors),
        "errors": run["errors"] + errors,
        "digest": digest([o.key for op, o in done if op.cycle == 0]),
        "details": {
            "op_wall_s": run["op_wall"],
            "cycles": workload.n_cycles,
            "passes": workload.passes,
            "op_samples": len(op_ms),
            "tail_percentile": 100.0 * rank / len(op_ms),
            "warm_samples": len(op_ms) if workload.warm_rerun else 0,
        },
    }


def check(workload, done: list) -> list[str]:
    try:
        return workload.check(done)
    finally:
        workload.finish()


def trace(workload, probe) -> dict:
    import layers

    plain = run_passes(workload, 1)
    probe.install()
    try:
        traced = run_passes(workload, 1, probe)
    finally:
        probe.uninstall()
    errors = [
        f"{workload.name} op {op.args}: traced output differs"
        for (op, a), (_, b) in zip(plain["done"], traced["done"])
        if a.key != b.key
    ]
    errors += check(workload, plain["done"])
    metrics = layers.layer_metrics(probe)
    wall = traced["op_wall"]
    metrics["untraced_share"] = (max(0.0, wall - traced["op_covered_s"]) / wall, "ratio")
    metrics["trace_overhead"] = (wall / plain["op_wall"], "ratio")
    shares = layers.family_shares(traced["op_self_s"], wall)
    return {
        "metrics": {k: v[0] for k, v in metrics.items()},
        "units": {k: v[1] for k, v in metrics.items()},
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"] + len(errors),
        "errors": plain["errors"] + traced["errors"] + errors,
        "coverage_errors": layers.coverage_errors(workload.name, metrics),
        "digest": digest([o.key for op, o in plain["done"] if op.cycle == 0]),
        "details": {
            "untraced_wall_s": plain["op_wall"],
            "traced_wall_s": wall,
            "cycles": workload.n_cycles,
            "shares": shares,
            "largest_family": max(shares, key=shares.get),
            "expected_largest": layers.LARGEST[workload.name],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace", "reference"), required=True
    )
    args = parser.parse_args(argv)

    probe = None
    if args.mode == "trace":
        import layers

        probe = layers.Probe()
        probe.install()
    cls = WORKLOADS[args.workload]
    cycles = 1 if args.mode == "reference" else cycles_for(cls, args.seconds)
    workload = cls(args.seed, ROOT, cycles)
    workload.setup()
    if probe is not None:
        probe.uninstall()
    print("READY", flush=True)
    if args.mode == "setup":
        workload.finish()
        return 0
    if args.mode == "reference":
        run = run_passes(workload, 1)
        workload.finish()
        result = {"digest": digest([o.key for _, o in run["done"]]),
                  "failed": run["failed"], "errors": run["errors"]}
    elif args.mode == "measure":
        result = measure(workload)
    else:
        result = trace(workload, probe)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
