"""Base relations and the catalog (experimental testbed of Section 6.1).

The paper's workload draws relations of 10^3 to 10^5 tuples, with 128-byte
tuples and 40 tuples per page (Table 2).  :class:`Relation` captures one
base table's statistics; :class:`Catalog` is the DBMS-catalog stand-in the
cost model reads (the paper: "determine its individual resource
requirements using hardware parameters, DBMS statistics, and conventional
optimizer cost models").
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError, PlanStructureError

if TYPE_CHECKING:  # numpy is optional; rng parameters are duck-typed
    import numpy as np

__all__ = ["Relation", "Catalog", "random_catalog"]


@dataclass(frozen=True)
class Relation:
    """Statistics of one base relation.

    Attributes
    ----------
    name:
        Relation name, unique within a catalog.
    tuples:
        Cardinality in tuples.
    """

    name: str
    tuples: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("relation name must be non-empty")
        if self.tuples < 0:
            raise ConfigurationError(
                f"relation {self.name!r}: cardinality must be >= 0, got {self.tuples}"
            )

    def pages(self, tuples_per_page: int) -> int:
        """Number of pages occupied, rounded up."""
        if tuples_per_page < 1:
            raise ConfigurationError(
                f"tuples_per_page must be >= 1, got {tuples_per_page}"
            )
        return math.ceil(self.tuples / tuples_per_page)

    def size_bytes(self, tuple_bytes: int) -> int:
        """Total size in bytes."""
        if tuple_bytes < 1:
            raise ConfigurationError(f"tuple_bytes must be >= 1, got {tuple_bytes}")
        return self.tuples * tuple_bytes


class Catalog:
    """A named collection of base relations.

    Behaves like a read-mostly mapping from relation name to
    :class:`Relation`; insertion order is preserved (it determines the
    default join-graph vertex order of the workload generator).
    """

    def __init__(self, relations: Iterator[Relation] | list[Relation] = ()):  # noqa: B008
        self._relations: dict[str, Relation] = {}
        for rel in relations:
            self.add(rel)

    def add(self, relation: Relation) -> None:
        """Register ``relation``; duplicate names are rejected."""
        if relation.name in self._relations:
            raise PlanStructureError(f"duplicate relation name {relation.name!r}")
        self._relations[relation.name] = relation

    def get(self, name: str) -> Relation:
        """Return the relation called ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise PlanStructureError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    @property
    def names(self) -> list[str]:
        """Relation names in insertion order."""
        return list(self._relations)

    def total_tuples(self) -> int:
        """Sum of cardinalities over all relations."""
        return sum(rel.tuples for rel in self)

    def __repr__(self) -> str:
        return f"Catalog({len(self)} relations, {self.total_tuples()} tuples)"


def random_catalog(
    n_relations: int,
    rng: np.random.Generator,
    *,
    min_tuples: int = 1_000,
    max_tuples: int = 100_000,
    name_prefix: str = "R",
) -> Catalog:
    """Draw a catalog of ``n_relations`` random base relations.

    Cardinalities are sampled log-uniformly on ``[min_tuples, max_tuples]``
    — matching the paper's "Relation Size: 10^3 - 10^5 tuples" range while
    giving every order of magnitude equal representation (a uniform draw
    would make small relations vanishingly rare).

    Parameters
    ----------
    n_relations:
        Number of relations (a ``k``-join tree query needs ``k + 1``).
    rng:
        Seeded NumPy generator — the only source of randomness.
    """
    if n_relations < 1:
        raise ConfigurationError(f"n_relations must be >= 1, got {n_relations}")
    if not 0 < min_tuples <= max_tuples:
        raise ConfigurationError(
            f"need 0 < min_tuples <= max_tuples, got {min_tuples}, {max_tuples}"
        )
    lo, hi = math.log(min_tuples), math.log(max_tuples)
    catalog = Catalog()
    for i in range(n_relations):
        tuples = int(round(math.exp(rng.uniform(lo, hi))))
        tuples = min(max(tuples, min_tuples), max_tuples)
        catalog.add(Relation(name=f"{name_prefix}{i}", tuples=tuples))
    return catalog
