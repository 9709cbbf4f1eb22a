"""End-to-end benchmark of the repro scheduler: four workloads, two modes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --record-reference 1 7919

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  Either way the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("sweep", "robust", "plansearch", "serve")

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A worker still running after this many seconds is killed.
WORKER_TIMEOUT_S = 150.0

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "rerun_ms_p50": "ms",
    "virtual_p50_s": "s",
    "virtual_p99_s": "s",
    "max_rate_qps": "1/s",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_CACHE_DIR", None)  # the benchmark controls every store
    return env


def start_worker(workload: str, seed: int, seconds: float, mode: str):
    """Start one worker; returns ``(process, set-up seconds, watchdog)``."""
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--mode", mode,
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "READY":
        finish_worker(proc, watchdog)
        raise WorkerError(f"{workload} worker ({mode}) failed during set-up")
    return proc, setup_s, watchdog


def finish_worker(proc, watchdog) -> dict | None:
    """Wait for the worker; returns its JSON result line, if any."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_worker(workload: str, seed: int, seconds: float, mode: str):
    proc, setup_s, watchdog = start_worker(workload, seed, seconds, mode)
    result = finish_worker(proc, watchdog)
    if result is None:
        raise WorkerError(f"{workload} worker ({mode}) exited without a result")
    return result, setup_s


def import_breakdown() -> dict[str, float]:
    """Self import time of repro, networkx and numpy (``-X importtime``)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError("import repro failed")
    totals = {"repro": 0.0, "networkx": 0.0, "numpy": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = float(fields[0])
        except ValueError:
            continue  # the column header
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us / 1e6
    return totals


def host_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def reference_digest(workload: str, seed: int) -> str | None:
    try:
        table = json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s, watchdog = start_worker(workload, seed, seconds, "setup")
        finish_worker(proc, watchdog)
        setups.append(setup_s)
    result, setup_s = run_worker(workload, seed, seconds, "measure")
    setups.append(setup_s)
    result["metrics"] = {"setup_s": statistics.median(setups), **result["metrics"]}
    result["details"]["setup_samples"] = setups
    return result


def traced(workload: str, seed: int, seconds: float) -> dict:
    result, _ = run_worker(workload, seed, seconds, "trace")
    imports = import_breakdown()
    for name, value in imports.items():
        result["metrics"][f"import.{name}_s"] = value
        result["units"][f"import.{name}_s"] = "s"
    return result


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = (traced if trace else untraced)(workload, seed, seconds)
    errors = result["errors"]
    expected = reference_digest(workload, seed)
    if expected is None:
        result["reference"] = "none recorded for this seed"
    elif expected == result["digest"]:
        result["reference"] = "matched"
    else:
        result["reference"] = "MISMATCH"
        errors.append(f"{workload}: output digest {result['digest']} != reference {expected}")
        result["failed"] += 1
    if trace and result["coverage_errors"]:
        errors.extend(result["coverage_errors"])
    result["correct"] = not errors and result["failed"] == 0
    return result


def report(workload: str, seed: int, trace: bool, result: dict) -> None:
    """Human-readable block (the JSON line follows at the end)."""
    d = result["details"]
    print(f"== {workload} seed={seed} {'traced' if trace else 'untraced'} "
          f"host={json.dumps(host_record(), sort_keys=True)}")
    print(f"   ops failed/attempted: {result['failed']}/{result['attempted']}; "
          f"output reference: {result['reference']}")
    units = result.get("units", UNITS)
    if trace:
        print(f"   untraced {d['untraced_wall_s']:.3f}s, traced {d['traced_wall_s']:.3f}s "
              f"over {d['cycles']} cycles")
        shares = sorted(d["shares"].items(), key=lambda kv: -kv[1])
        print("   self-time shares of traced ops: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares if v >= 0.005))
        verdict = "confirmed" if d["largest_family"] == d["expected_largest"] else "NOT confirmed"
        print(f"   largest share: {d['largest_family']} "
              f"(expected {d['expected_largest']}: {verdict})")
    else:
        print(f"   {d['cycles']} cycles x {d['passes']} passes, {d['op_wall_s']:.3f}s wall time of ops; "
              f"op samples {d['op_samples']} (tail = p{d['tail_percentile']:.1f}), "
              f"warm re-run samples {d['warm_samples']}, "
              f"set-up samples {['%.3f' % s for s in d['setup_samples']]}")
    for name, value in result["metrics"].items():
        print(f"   {name:30s} {value:14.6g} {units[name]}")
    for error in result["errors"][:20]:
        print(f"   FAILED: {error}")


def record_reference(seeds: list[int]) -> int:
    """Write the first-cycle output digest of every workload for ``seeds``."""
    table: dict[str, dict[str, str]] = {w: {} for w in WORKLOADS}
    for workload in WORKLOADS:
        for seed in seeds:
            result, _ = run_worker(workload, seed, 0.0, "reference")
            if result["failed"]:
                print(f"{workload} seed {seed}: {result['errors']}", file=sys.stderr)
                return 1
            table[workload][str(seed)] = result["digest"]
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded seeds {seeds} for {', '.join(WORKLOADS)}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args.record_reference)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, trace)
            report(name, args.seed, trace, results[name])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def metric(result, name, value):
        return {"value": value, "unit": result.get("units", UNITS)[name]}

    if len(names) == 1:
        result = results[names[0]]
        metrics = {k: metric(result, k, v) for k, v in result["metrics"].items()}
    else:
        metrics = {
            f"{w}.{k}": metric(r, k, v)
            for w, r in results.items()
            for k, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
