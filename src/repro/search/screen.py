"""Candidate lower bounds: prune plans before scheduling them.

For each candidate plan the screen computes a *valid* lower bound on its
TREESCHEDULE response time from two sides, mirroring the Section 7 bound
``LB = max{ l(S)/P, h }`` (:mod:`repro.core.bounds`):

* **Congestion.**  The total work vector of an operator is componentwise
  non-decreasing in its degree of parallelism
  (:func:`~repro.core.cloning.total_work_vector`), so summing the
  ``n = 1`` vectors over all operators under-estimates the work any
  actual parallelization must push through the ``P`` sites.  The
  ``l(S)/P`` side is the length of the componentwise sum of those
  vectors, folded left to right like :func:`repro.core.bounds.lower_bound`.

* **Critical path.**  The response time is the sum of synchronized phase
  makespans; an operator's phase lasts at least
  ``t_min(op) = min_N T_par(op, N)`` (Equation (1) minimized over all
  degrees ``1..P``), and a blocking edge forces its consumer into a
  strictly later phase.  A longest-path DP over the operator DAG carries
  ``(closed, open)`` per operator — the sum of finished pipeline
  segments and the running segment's max — and ``h`` is the best
  ``closed + open`` anywhere.  Both the makespan argument per phase and
  the phase-disjointness of consecutive segments are exact, so
  ``h <= response_time`` always holds: *a pruned candidate can never
  beat the incumbent*, which is what keeps pruning winner-invariant.

``t_min`` is memoized on the operator's ``(work, data volume)``
signature: repeated subtrees across candidates (ubiquitous — the DP
shares subsets, mutations keep most of a plan) screen for free.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.cloning import (
    DEFAULT_COORDINATOR_POLICY,
    CoordinatorPolicy,
    parallel_time,
    total_work_vector,
)
from repro.core.granularity import CommunicationModel
from repro.core.resource_model import OverlapModel
from repro.core.work_vector import vector_sum
from repro.cost.annotate import compute_operator_spec
from repro.cost.params import SystemParameters
from repro.plans.join_tree import PlanNode
from repro.plans.operator_tree import expand_plan
from repro.plans.physical_ops import EdgeKind

__all__ = ["ScreenContext", "candidate_lower_bounds"]


class ScreenContext:
    """Scheduling context plus the cross-candidate ``t_min`` memo.

    One context serves one ``(p, params, comm, overlap, policy)``
    setting for the whole search; reusing it across scoring rounds is
    what makes repeated operator signatures near-free to screen.
    """

    def __init__(
        self,
        *,
        p: int,
        params: SystemParameters,
        comm: CommunicationModel,
        overlap: OverlapModel,
        policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
        capacities: "Sequence[float] | None" = None,
    ) -> None:
        self.p = p
        self.params = params
        self.comm = comm
        self.overlap = overlap
        self.policy = policy
        #: heterogeneous relaxation terms (``None`` keeps the historical
        #: homogeneous bound byte-for-byte): congestion divides by the
        #: total capacity instead of ``p``, the critical path by the
        #: fastest site's speed — both sides stay valid lower bounds.
        self.total_capacity = (
            None if capacities is None else float(sum(capacities))
        )
        self.max_capacity = None if capacities is None else max(capacities)
        self._t_min: dict[tuple, float] = {}

    def t_min(self, spec) -> float:
        """``min_N T_par(spec, N)`` over ``1..p``, memoized by signature."""
        signature = (spec.work.components, spec.data_volume)
        cached = self._t_min.get(signature)
        if cached is not None:
            return cached
        value = min(
            parallel_time(spec, n, self.comm, self.overlap, self.policy)
            for n in range(1, self.p + 1)
        )
        self._t_min[signature] = value
        return value


def _critical_path(op_tree, specs, ctx: ScreenContext) -> float:
    """The segment-DP lower bound ``h`` for one candidate's operator DAG."""
    best: dict = {}
    h = 0.0
    for op in op_tree.operators:
        t = ctx.t_min(specs[op.name])
        closed, open_max = 0.0, t
        for producer in op_tree.producers(op, EdgeKind.BLOCKING):
            s, m = best[producer]
            if s + m + t > closed + open_max or (
                s + m + t == closed + open_max and s + m > closed
            ):
                closed, open_max = s + m, t
        for producer in op_tree.producers(op, EdgeKind.PIPELINE):
            s, m = best[producer]
            cand = (s, max(m, t))
            if cand[0] + cand[1] > closed + open_max or (
                cand[0] + cand[1] == closed + open_max and cand[0] > closed
            ):
                closed, open_max = cand
        best[op] = (closed, open_max)
        h = max(h, closed + open_max)
    return h


def candidate_lower_bounds(
    plans: Sequence[PlanNode], ctx: ScreenContext
) -> list[float]:
    """A valid response-time lower bound per candidate plan.

    Expands and cost-annotates each candidate (detached — the plan trees
    are not modified), then combines the congestion side with
    the per-candidate critical-path side.  Bounds are deterministic
    functions of the plan structure and the context, independent of
    worker count and store state.
    """
    denom = float(ctx.p) if ctx.total_capacity is None else ctx.total_capacity
    bounds = []
    for plan in plans:
        op_tree = expand_plan(plan)
        specs = {
            op.name: compute_operator_spec(op, op_tree, ctx.params)
            for op in op_tree.operators
        }
        congestion = vector_sum(
            total_work_vector(spec, 1, ctx.comm, ctx.policy)
            for spec in specs.values()
        ).length() / denom
        h = _critical_path(op_tree, specs, ctx)
        if ctx.max_capacity is not None:
            h /= ctx.max_capacity
        bounds.append(max(congestion, h))
    return bounds
