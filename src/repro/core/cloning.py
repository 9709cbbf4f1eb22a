"""Operator cloning and partitioned parallelism (Sections 4.3, 5.2.1).

In partitioned parallelism the work vector of an operator is split among a
set of *operator clones* [GHK92]; each clone executes on a single site and
works on a portion of the operator's data.  This module implements:

* :class:`OperatorSpec` — the scheduler-facing description of one physical
  operator: its zero-communication work vector (whose component sum is the
  processing area ``W_p``) and the data volume ``D`` it moves over the
  interconnect;
* clone-vector construction under the experimental assumption **EA1 (no
  execution skew)**: the work vector (processing plus ``beta * D`` network
  time) is distributed perfectly among the ``N`` participating sites, while
  the serial startup ``alpha * N`` is charged to a single designated
  *coordinator* clone, divided equally between the coordinator's CPU and
  its network-interface component;
* the parallel execution time ``T_par(op, N)`` of Equation (1) — the
  maximum sequential time over the clones;
* degree-of-parallelism selection: the coarse-grain bound
  ``N_max(op, f)`` of Proposition 4.1, clamped by the response-time-optimal
  degree so that assumption **A4 (non-increasing execution times)** is
  never violated (Section 6.1), and by the number of sites ``P``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError, InvalidWorkVectorError, SchedulingError
from repro.core.granularity import CommunicationModel, processing_area
from repro.core.resource_model import OverlapModel
from repro.core.work_vector import WorkVector

__all__ = [
    "OperatorSpec",
    "CoordinatorPolicy",
    "clone_work_vectors",
    "total_work_vector",
    "parallel_time",
    "response_optimal_degree",
    "coarse_grain_degree",
]


@dataclass(frozen=True)
class OperatorSpec:
    """Scheduler-facing description of one physical query operator.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"scan(R3)"``, ``"probe(J7)"``).
        Names must be unique within one scheduling problem; they implement
        constraint (A) of Section 5.3 (no two clones of the same operator
        on the same site).
    work:
        The zero-communication work vector.  Its component sum is the
        processing area ``W_p(op)``, constant over all executions.
    data_volume:
        ``D``: total bytes of the operator's input and output data sets
        transferred over the interconnect (assumption A5: pipelined
        outputs are always repartitioned).
    """

    name: str
    work: WorkVector
    data_volume: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("operator name must be non-empty")
        if self.data_volume < 0.0:
            raise ConfigurationError(
                f"operator {self.name!r}: data volume must be >= 0, got {self.data_volume}"
            )

    @property
    def d(self) -> int:
        """Dimensionality of the operator's work vector."""
        return self.work.d

    @property
    def processing_area(self) -> float:
        """``W_p(op)``: sum of the zero-communication work components."""
        return processing_area(self.work)


@dataclass(frozen=True)
class CoordinatorPolicy:
    """How the serial startup cost ``alpha * N`` is charged (EA1).

    The startup of a parallel execution cannot be distributed among the
    participating sites; it is incurred at a single coordinator site.  The
    experimental model divides it equally between the coordinator's CPU
    and its network interface.

    Attributes
    ----------
    cpu_axis:
        Work-vector index receiving the CPU half of the startup.
    network_axis:
        Work-vector index receiving the network half.  ``None`` selects
        the last dimension (which is the network interface in the default
        three-resource layout ``CPU, DISK, NETWORK``).
    cpu_fraction:
        Fraction of the startup charged to ``cpu_axis`` (the remainder
        goes to ``network_axis``).  The paper's EA1 uses ``0.5``.
    """

    cpu_axis: int = 0
    network_axis: int | None = None
    cpu_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.cpu_fraction <= 1.0:
            raise ConfigurationError(
                f"cpu_fraction must lie in [0, 1], got {self.cpu_fraction}"
            )

    def startup_vector(self, d: int, startup: float) -> WorkVector:
        """Return the ``d``-dimensional vector charging ``startup`` seconds."""
        return WorkVector(self._startup_components(d, startup))

    def _startup_components(self, d: int, startup: float) -> list[float]:
        """The components of :meth:`startup_vector`, not yet validated."""
        net_axis = self.network_axis if self.network_axis is not None else d - 1
        if not 0 <= self.cpu_axis < d or not 0 <= net_axis < d:
            raise ConfigurationError(
                f"coordinator axes ({self.cpu_axis}, {net_axis}) out of range for d={d}"
            )
        comps = [0.0] * d
        comps[self.cpu_axis] += self.cpu_fraction * startup
        comps[net_axis] += (1.0 - self.cpu_fraction) * startup
        return comps


#: The experimental default: startup split equally between the coordinator's
#: CPU (axis 0) and network interface (last axis).
DEFAULT_COORDINATOR_POLICY = CoordinatorPolicy()


def clone_work_vectors(
    spec: OperatorSpec,
    n: int,
    comm: CommunicationModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> list[WorkVector]:
    """Partition ``spec`` into ``n`` clone work vectors (EA1, Section 5.2.1).

    The processing work vector plus the distributed network-transfer time
    ``beta * D`` (placed on the network axis) is divided perfectly by
    ``n``; the startup ``alpha * n`` is then added to clone 0, the
    coordinator, split between its CPU and network components according to
    ``policy``.

    The sum of the returned vectors equals the operator's *total* work
    vector, whose component sum is ``W_p(op) + W_c(op, n)`` as required by
    the Section 5.1 accounting.
    """
    if n < 1:
        raise SchedulingError(f"operator {spec.name!r}: clone count must be >= 1, got {n}")
    d = spec.d
    net_axis = policy.network_axis if policy.network_axis is not None else d - 1
    transfer = comm.transfer_cost(spec.data_volume)
    base = spec.work + WorkVector.unit(d, net_axis, transfer)
    share = base / n
    clones = [share] * n
    startup = comm.startup_cost(n)
    if startup > 0.0:
        clones[0] = share + policy.startup_vector(d, startup)
    return clones


def total_work_vector(
    spec: OperatorSpec,
    n: int,
    comm: CommunicationModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> WorkVector:
    """Return ``W̄_op`` for an ``n``-site execution, communication included.

    Satisfies ``total.total() == W_p(op) + W_c(op, n)`` (Section 5.1) and
    is componentwise non-decreasing in ``n`` — the property the malleable
    extension of Section 7 relies on.
    """
    if n < 1:
        raise SchedulingError(f"operator {spec.name!r}: clone count must be >= 1, got {n}")
    d = spec.d
    net_axis = policy.network_axis if policy.network_axis is not None else d - 1
    transfer = comm.transfer_cost(spec.data_volume)
    total = spec.work + WorkVector.unit(d, net_axis, transfer)
    startup = comm.startup_cost(n)
    if startup > 0.0:
        total = total + policy.startup_vector(d, startup)
    return total


def parallel_time(
    spec: OperatorSpec,
    n: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> float:
    """Equation (1): ``T_par(op, N) = max_k T_seq(W̄_k)`` over the clones.

    Under EA1 the maximum is attained by the coordinator clone (the only
    one carrying extra startup work), so only two distinct sequential
    times need to be evaluated.

    The clone vectors are kept as plain floats: the arithmetic, its order
    and the errors raised are those of ``(work + unit(net, beta*D)) / n``
    plus :meth:`CoordinatorPolicy.startup_vector` on :class:`WorkVector`
    values, so the result is bit-identical to :func:`clone_work_vectors`
    followed by :meth:`OverlapModel.t_seq`, without building a vector.
    """
    if n < 1:
        raise SchedulingError(f"operator {spec.name!r}: clone count must be >= 1, got {n}")
    work = spec.work.components
    d = len(work)
    net_axis = policy.network_axis if policy.network_axis is not None else d - 1
    transfer = comm.transfer_cost(spec.data_volume)
    if not 0 <= net_axis < d:
        raise InvalidWorkVectorError(f"axis {net_axis} out of range for dimensionality {d}")
    net = work[net_axis] + transfer
    if not math.isfinite(net):
        raise InvalidWorkVectorError(f"work vector component {net_axis} is not finite: {net!r}")
    if transfer < 0.0:
        raise InvalidWorkVectorError(f"work vector component {net_axis} is negative: {transfer!r}")
    share = [(c + 0.0) / n for c in work]
    share[net_axis] = net / n
    startup = comm.startup_cost(n)
    if startup > 0.0:
        # A non-finite startup half stays non-finite, at the same index and
        # value, in the sum: checking the sum raises what both checks would.
        halves = policy._startup_components(d, startup)
        coordinator = [c + s for c, s in zip(share, halves)]
        t_coord = overlap.t_seq_components(_finite(coordinator))
    else:
        t_coord = overlap.t_seq_components(share)
    if n == 1:
        return t_coord
    return max(t_coord, overlap.t_seq_components(share))


def _finite(comps: list[float]) -> list[float]:
    """Return ``comps``, raising as :class:`WorkVector` does on a non-finite one."""
    for i, c in enumerate(comps):
        if not math.isfinite(c):
            raise InvalidWorkVectorError(f"work vector component {i} is not finite: {c!r}")
    return comps


def response_optimal_degree(
    spec: OperatorSpec,
    p: int,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> int:
    """Return the degree in ``1..p`` minimizing ``T_par(op, N)``.

    For each operator there is an optimal degree of partitioned
    parallelism beyond which startup causes a speed-down [WFA92]; the
    Section 6.1 implementation note requires that this degree is never
    exceeded, enforcing assumption A4 on the range of degrees in use.
    Ties are broken toward the *smaller* degree (less communication for
    the same response time).
    """
    if p < 1:
        raise SchedulingError(f"number of sites must be >= 1, got {p}")
    best_n = 1
    best_t = parallel_time(spec, 1, comm, overlap, policy)
    for n in range(2, p + 1):
        t = parallel_time(spec, n, comm, overlap, policy)
        if t < best_t * (1.0 - 1e-12):
            best_t = t
            best_n = n
    return best_n


def coarse_grain_degree(
    spec: OperatorSpec,
    p: int,
    f: float,
    comm: CommunicationModel,
    overlap: OverlapModel,
    policy: CoordinatorPolicy = DEFAULT_COORDINATOR_POLICY,
) -> int:
    """Degree of parallelism used by the scheduler for a floating operator.

    ``N_i = min{ N_max(op_i, f), N_rt(op_i), P }`` where ``N_max`` is the
    coarse-grain bound of Proposition 4.1 and ``N_rt`` is the
    response-time-optimal degree (A4 enforcement, Section 6.1).
    """
    n_cg = comm.n_max(f, spec.processing_area, spec.data_volume)
    n_cap = min(n_cg, p)
    if n_cap <= 1:
        return 1
    n_rt = response_optimal_degree(spec, n_cap, comm, overlap, policy)
    return max(1, min(n_cap, n_rt))
