"""Shared utilities for the benchmark harness.

Each benchmark module regenerates one paper table/figure (printing the
series exactly as EXPERIMENTS.md records them) and times the core
computation with ``pytest-benchmark``.  Regenerated reports are also
written under ``benchmarks/results/`` so they survive non-verbose runs.
Those files are committed and regenerate byte-identically.  Reports of
wall-clock times differ on every run and every host, so they go to the
untracked ``benchmarks/timings/`` instead.
"""

from __future__ import annotations

import pathlib

from repro.experiments import PAPER_CONFIG

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Untracked (gitignored) home of the wall-time reports.
TIMINGS_DIR = pathlib.Path(__file__).parent / "timings"

#: Reduced sweep used by the benchmarks: the paper's parameter values with
#: fewer samples so every figure regenerates in seconds.  Shapes (who
#: wins, where the curves bend) are preserved; EXPERIMENTS.md records the
#: correspondence.
BENCH_CONFIG = PAPER_CONFIG.with_overrides(
    n_queries=3,
    site_counts=(10, 40, 80, 140),
    query_sizes=(10, 20, 40),
    f_values=(0.05, 0.2, 0.7),
    epsilon_values=(0.1, 0.4, 0.7),
)


def publish(name: str, text: str, *, timed: bool = False) -> None:
    """Print a regenerated report and persist it.

    Deterministic reports go under results/; ``timed`` ones (wall-clock
    figures) under the untracked timings/.
    """
    print()
    print(text)
    directory = TIMINGS_DIR if timed else RESULTS_DIR
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.txt").write_text(text + "\n")


def run_annotated(query, scheduler, **kwargs):
    """Run ``scheduler`` on a prepared query with its cost annotation active.

    :func:`repro.experiments.prepare_workload` returns queries whose
    specs stay detached from the shared operator tree, so every
    scheduler call resolves them through ``query.annotation``.
    """
    with query.annotation.activate():
        return scheduler(query.operator_tree, query.task_tree, **kwargs)
