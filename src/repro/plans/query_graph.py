"""Tree query graphs (the Section 6.1 workload's query class).

The experiments use *tree queries*: the query graph — one vertex per base
relation, one edge per join predicate — is a tree.  This module wraps a
:mod:`networkx` graph with tree validation and provides a uniform random
tree generator (via random Prüfer sequences, so every labelled tree on the
relation set is equally likely).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import networkx as nx

from repro.exceptions import PlanStructureError
from repro.plans.relations import Catalog

if TYPE_CHECKING:  # numpy is optional; rng parameters are duck-typed
    import numpy as np

__all__ = ["QueryGraph", "random_tree_query"]


class QueryGraph:
    """An acyclic (tree) query graph over named base relations.

    Parameters
    ----------
    relations:
        The vertex set (relation names).
    joins:
        The edge set: pairs of relation names with a join predicate
        between them.  Must form a tree over ``relations`` when the query
        has more than one relation.
    """

    def __init__(self, relations: Iterable[str], joins: Iterable[tuple[str, str]]):
        graph = nx.Graph()
        graph.add_nodes_from(relations)
        if graph.number_of_nodes() == 0:
            raise PlanStructureError("query graph needs at least one relation")
        for a, b in joins:
            if a not in graph or b not in graph:
                raise PlanStructureError(f"join ({a!r}, {b!r}) references unknown relation")
            if a == b:
                raise PlanStructureError(f"self-join edge on {a!r} is not allowed")
            if graph.has_edge(a, b):
                raise PlanStructureError(f"duplicate join edge ({a!r}, {b!r})")
            graph.add_edge(a, b)
        if not nx.is_connected(graph):
            raise PlanStructureError("query graph must be connected")
        if graph.number_of_edges() != graph.number_of_nodes() - 1:
            raise PlanStructureError(
                "query graph must be a tree "
                f"({graph.number_of_nodes()} vertices, {graph.number_of_edges()} edges)"
            )
        self._graph = graph

    @property
    def relations(self) -> list[str]:
        """The relation names (vertex set)."""
        return list(self._graph.nodes)

    @property
    def joins(self) -> list[tuple[str, str]]:
        """The join edges."""
        return [tuple(sorted(edge)) for edge in self._graph.edges]

    @property
    def num_joins(self) -> int:
        """Number of join predicates (edges)."""
        return self._graph.number_of_edges()

    def neighbors(self, relation: str) -> list[str]:
        """Relations directly joined with ``relation``."""
        if relation not in self._graph:
            raise PlanStructureError(f"unknown relation {relation!r}")
        return list(self._graph.neighbors(relation))

    def has_join(self, a: str, b: str) -> bool:
        """Is there a join predicate between ``a`` and ``b``?"""
        return self._graph.has_edge(a, b)

    def to_networkx(self) -> nx.Graph:
        """Return a defensive copy of the underlying graph."""
        return self._graph.copy()

    def __repr__(self) -> str:
        return f"QueryGraph({len(self.relations)} relations, {self.num_joins} joins)"


def random_tree_query(catalog: Catalog, rng: np.random.Generator) -> QueryGraph:
    """Draw a uniformly random tree query over all relations of ``catalog``.

    Uses a random Prüfer sequence, which is in bijection with labelled
    trees, so each of the ``n^(n-2)`` trees on ``n`` relations is equally
    likely.  A catalog of one relation yields the trivial single-vertex
    graph; two relations yield the single possible edge.
    """
    names = catalog.names
    n = len(names)
    if n == 0:
        raise PlanStructureError("catalog is empty")
    if n == 1:
        return QueryGraph(names, [])
    if n == 2:
        return QueryGraph(names, [(names[0], names[1])])
    prufer = [int(rng.integers(0, n)) for _ in range(n - 2)]
    tree = nx.from_prufer_sequence(prufer)
    edges = [(names[a], names[b]) for a, b in tree.edges]
    return QueryGraph(names, edges)
