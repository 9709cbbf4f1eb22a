"""Tests for the seeded workload generator (Section 6.1 methodology)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ConfigurationError, generate_query, generate_workload


class TestGenerateQuery:
    def test_structure_sizes(self):
        q = generate_query(10, np.random.default_rng(0))
        assert q.num_joins == 10
        assert len(q.catalog) == 11
        assert len(q.operator_tree) == 11 + 10 + 10
        assert q.graph.num_joins == 10

    def test_zero_joins(self):
        q = generate_query(0, np.random.default_rng(0))
        assert q.num_joins == 0
        assert len(q.operator_tree) == 1
        assert len(q.task_tree) == 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_query(-1, np.random.default_rng(0))

    def test_cardinality_range(self):
        q = generate_query(30, np.random.default_rng(5), min_tuples=500, max_tuples=2_000)
        for rel in q.catalog:
            assert 500 <= rel.tuples <= 2_000

    def test_unannotated_by_default(self):
        q = generate_query(3, np.random.default_rng(0))
        assert all(not op.annotated for op in q.operator_tree.operators)

    def test_repr_compact(self):
        q = generate_query(3, np.random.default_rng(0))
        assert "joins=3" in repr(q)


class TestGenerateWorkload:
    def test_cohort_size(self):
        cohort = generate_workload(5, 4, seed=9)
        assert len(cohort) == 4
        assert all(q.num_joins == 5 for q in cohort)

    def test_reproducible(self):
        a = generate_workload(8, 3, seed=123)
        b = generate_workload(8, 3, seed=123)
        for qa, qb in zip(a, b):
            assert qa.plan.pretty() == qb.plan.pretty()
            assert [r.tuples for r in qa.catalog] == [r.tuples for r in qb.catalog]

    def test_seed_changes_workload(self):
        a = generate_workload(8, 3, seed=1)
        b = generate_workload(8, 3, seed=2)
        assert any(
            qa.plan.pretty() != qb.plan.pretty() for qa, qb in zip(a, b)
        )

    def test_queries_within_cohort_differ(self):
        cohort = generate_workload(8, 5, seed=3)
        shapes = {q.plan.pretty() for q in cohort}
        assert len(shapes) > 1

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            generate_workload(5, 0, seed=1)

    def test_missing_numpy_is_a_configuration_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # import now fails
        with pytest.raises(ConfigurationError):
            generate_workload(5, 1, seed=1)


def test_import_repro_loads_no_numpy():
    """numpy is imported only where random numbers are drawn."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys\n"
        "import repro, repro.sim, repro.experiments, repro.serialization\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"
