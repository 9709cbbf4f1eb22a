"""Experiment bench-kernels — scheduling-kernel wall-clock trajectory.

Measures the median ``pack_vectors`` wall-clock on the n × p grid and
writes it, in the ``BENCH_kernels.json`` format, to the untracked
``benchmarks/timings/`` (``python benchmarks/kernel_bench.py --write``
refreshes the committed baseline at the repo root).  Asserts the
properties the optimization is sold on:

* the optimized kernel is at least 3x faster than the frozen pre-PR 2
  baseline at the guard point (n=1000, p=64, d=3);
* heap placement and incremental loads change nothing about the output —
  the packing is byte-identical to the naive reference kernel;
* the shelf packer clears the scale point (n=10^4 clones over
  p=10^3 sites) warm in well under a second;
* repairing a 3-site failure via incremental rescheduling beats a cold
  re-pack by at least 4x at the guard point's size.
"""

from __future__ import annotations

import json

from repro import ConvexCombinationOverlap, pack_vectors, pack_vectors_reference
from repro.serialization import schedule_to_dict

from _helpers import TIMINGS_DIR, publish
from kernel_bench import (
    GUARD_POINT,
    PRE_PR2_SECONDS,
    RESCHEDULE_N,
    RESCHEDULE_P,
    SCALE_POINT,
    make_items,
    write_bench,
)

OVERLAP = ConvexCombinationOverlap(0.5)


def test_bench_kernels_trajectory(benchmark):
    """Measure the kernel trajectory and benchmark the guard point."""
    TIMINGS_DIR.mkdir(exist_ok=True)
    payload = write_bench(TIMINGS_DIR / "BENCH_kernels.json")
    lines = [
        "== bench-kernels: pack_vectors wall-clock (median seconds) ==",
        f"{'point':14s} {'pre-PR2':>10s} {'reference':>10s} {'optimized':>10s} {'speedup':>8s}",
    ]
    for key, entry in sorted(payload["points"].items()):
        pre = entry.get("pre_pr2_s")
        ref = entry.get("reference_s")
        lines.append(
            f"{key:14s} {pre if pre is not None else float('nan'):10.6f} "
            f"{ref if ref is not None else float('nan'):10.6f} "
            f"{entry['optimized_s']:10.6f} "
            f"{entry.get('speedup_vs_pre_pr2', float('nan')):7.1f}x"
        )
    scale = payload["scale"][SCALE_POINT]
    resched = payload["reschedule"][f"n={RESCHEDULE_N},p={RESCHEDULE_P}"]
    lines.append(
        f"{SCALE_POINT:14s} {'':10s} {'':10s} "
        f"{scale['optimized_s']:10.6f}    warm"
    )
    lines.append(
        f"reschedule n={RESCHEDULE_N},p={RESCHEDULE_P}: "
        f"repair {resched['reschedule_s']:.6f}s vs cold "
        f"{resched['cold_repack_s']:.6f}s "
        f"({resched['speedup_vs_cold_repack']:.1f}x, "
        f"{int(resched['removed_sites'])} sites removed)"
    )
    publish("bench_kernels", "\n".join(lines), timed=True)

    items = make_items(1000)
    benchmark(lambda: pack_vectors(items, p=64, overlap=OVERLAP))

    guard = payload["points"][GUARD_POINT]
    assert guard["pre_pr2_s"] == PRE_PR2_SECONDS[GUARD_POINT]
    # Acceptance criterion of PR 2: >= 3x on the guard point.
    assert guard["speedup_vs_pre_pr2"] >= 3.0
    # Scale-point and repair acceptance bounds.  Both bounds
    # are far looser than typical measurements (~0.08 s and ~10-14x) to
    # absorb CI noise while still catching order-of-magnitude breaks.
    assert scale["optimized_s"] < 1.0
    assert resched["speedup_vs_cold_repack"] >= 4.0


def test_kernels_guard_point_output_unchanged():
    """The optimized kernel's packing is byte-identical to the reference."""
    items = make_items(1000)
    fast = pack_vectors(items, p=64, overlap=OVERLAP)
    slow = pack_vectors_reference(items, p=64, overlap=OVERLAP)
    assert json.dumps(schedule_to_dict(fast)) == json.dumps(schedule_to_dict(slow))
