"""Bit-identity of the scalar Eq. (1) against the vector formulation.

``parallel_time`` evaluates ``T_par(op, N)`` on plain floats.  The oracle
below is the vector formulation it replaces: build the clone share
``(work + unit(net, beta*D)) / n`` and the coordinator's startup vector
as :class:`WorkVector` values and take ``max`` of their ``t_seq``.  The
properties compare with exact ``==`` (results, chosen degrees) and the
error cases compare exception type and message.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CommunicationModel,
    ConfigurationError,
    ConvexCombinationOverlap,
    CoordinatorPolicy,
    InvalidWorkVectorError,
    ModelValidationError,
    OperatorSpec,
    SchedulingError,
    WorkVector,
    coarse_grain_degree,
    parallel_time,
    response_optimal_degree,
)
from repro.core.resource_model import OverlapModel

DEFAULT_POLICY = CoordinatorPolicy()


def reference_startup_vector(policy, d, startup):
    net_axis = policy.network_axis if policy.network_axis is not None else d - 1
    if not 0 <= policy.cpu_axis < d or not 0 <= net_axis < d:
        raise ConfigurationError(
            f"coordinator axes ({policy.cpu_axis}, {net_axis}) out of range for d={d}"
        )
    comps = [0.0] * d
    comps[policy.cpu_axis] += policy.cpu_fraction * startup
    comps[net_axis] += (1.0 - policy.cpu_fraction) * startup
    return WorkVector(comps)


def reference_parallel_time(spec, n, comm, overlap, policy=DEFAULT_POLICY):
    """Eq. (1) on WorkVector values: the formulation the scalar path mirrors."""
    if n < 1:
        raise SchedulingError(f"operator {spec.name!r}: clone count must be >= 1, got {n}")
    d = spec.d
    net_axis = policy.network_axis if policy.network_axis is not None else d - 1
    share = (spec.work + WorkVector.unit(d, net_axis, comm.transfer_cost(spec.data_volume))) / n
    startup = comm.startup_cost(n)
    coordinator = share
    if startup > 0.0:
        coordinator = share + reference_startup_vector(policy, d, startup)
    t_coord = overlap.t_seq(coordinator)
    if n == 1:
        return t_coord
    return max(t_coord, overlap.t_seq(share))


def reference_times(spec, p, comm, overlap, policy):
    return [reference_parallel_time(spec, n, comm, overlap, policy) for n in range(1, p + 1)]


def reference_degree(times, p):
    """The linear scan of ``response_optimal_degree`` over ``times[:p]``."""
    best_n, best_t = 1, times[0]
    for n in range(2, p + 1):
        t = times[n - 1]
        if t < best_t * (1.0 - 1e-12):
            best_t, best_n = t, n
    return best_n


component = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
unit_float = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def cases(draw):
    d = draw(st.sampled_from([1, 2, 3, 5]))
    work = WorkVector(draw(st.lists(component, min_size=d, max_size=d)))
    data = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e10)))
    spec = OperatorSpec(name="op", work=work, data_volume=data)
    alpha = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)))
    beta = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-4)))
    eps = draw(st.one_of(st.sampled_from([0.0, 1.0]), unit_float))
    cpu_fraction = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit_float))
    cpu_axis = draw(st.integers(0, d - 1))
    # None (the last axis), an explicit axis, or the CPU axis itself.
    network_axis = draw(st.one_of(st.none(), st.integers(0, d - 1), st.just(cpu_axis)))
    policy = CoordinatorPolicy(
        cpu_axis=cpu_axis, network_axis=network_axis, cpu_fraction=cpu_fraction
    )
    comm = CommunicationModel(alpha=alpha, beta=beta)
    return spec, comm, ConvexCombinationOverlap(eps), policy


class TestBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(cases(), st.integers(1, 200))
    def test_parallel_time_equals_reference(self, case, n):
        spec, comm, overlap, policy = case
        assert parallel_time(spec, n, comm, overlap, policy) == reference_parallel_time(
            spec, n, comm, overlap, policy
        )

    @settings(max_examples=25, deadline=None)
    @given(cases(), st.floats(min_value=0.01, max_value=2.0))
    def test_degrees_equal_reference_for_every_p(self, case, f):
        spec, comm, overlap, policy = case
        times = reference_times(spec, 140, comm, overlap, policy)
        n_cg = comm.n_max(f, spec.processing_area, spec.data_volume)
        for p in range(1, 141):
            want = reference_degree(times, p)
            assert response_optimal_degree(spec, p, comm, overlap, policy) == want
            n_cap = min(n_cg, p)
            want_cg = 1 if n_cap <= 1 else max(1, min(n_cap, reference_degree(times, n_cap)))
            assert coarse_grain_degree(spec, p, f, comm, overlap, policy) == want_cg

    def test_builds_no_work_vector(self, monkeypatch):
        spec = OperatorSpec(name="op", work=WorkVector([3.0, 2.0, 1.0]), data_volume=1e6)
        comm = CommunicationModel(alpha=0.015, beta=0.6e-6)
        built = []
        original = WorkVector.__init__
        trusted = WorkVector._from_trusted.__func__

        def counting_init(self, components):
            built.append(1)
            original(self, components)

        def counting_trusted(cls, comps):
            built.append(1)
            return trusted(cls, comps)

        monkeypatch.setattr(WorkVector, "__init__", counting_init)
        monkeypatch.setattr(WorkVector, "_from_trusted", classmethod(counting_trusted))
        response_optimal_degree(spec, 64, comm, ConvexCombinationOverlap(0.5))
        assert built == []


def same_failure(call, reference):
    """Assert ``call`` and ``reference`` raise the same type and message."""
    with pytest.raises(Exception) as want:
        reference()
    with pytest.raises(want.type) as got:
        call()
    assert str(got.value) == str(want.value)
    return got.value


SPEC = OperatorSpec(name="op", work=WorkVector([3.0, 2.0, 1.0]), data_volume=1e6)
OVERLAP = ConvexCombinationOverlap(0.5)


class TestErrorPaths:
    @pytest.mark.parametrize("network_axis", [3, 7, -1, -3])
    @pytest.mark.parametrize("alpha", [0.0, 0.015])
    def test_network_axis_out_of_range(self, network_axis, alpha):
        comm = CommunicationModel(alpha=alpha, beta=0.6e-6)
        policy = CoordinatorPolicy(network_axis=network_axis)
        err = same_failure(
            lambda: parallel_time(SPEC, 2, comm, OVERLAP, policy),
            lambda: reference_parallel_time(SPEC, 2, comm, OVERLAP, policy),
        )
        assert isinstance(err, InvalidWorkVectorError)

    @pytest.mark.parametrize("cpu_axis", [3, -1])
    def test_cpu_axis_checked_only_with_startup(self, cpu_axis):
        policy = CoordinatorPolicy(cpu_axis=cpu_axis)
        free = CommunicationModel(alpha=0.0, beta=0.6e-6)
        assert parallel_time(SPEC, 4, free, OVERLAP, policy) == reference_parallel_time(
            SPEC, 4, free, OVERLAP, policy
        )
        paid = CommunicationModel(alpha=0.015, beta=0.6e-6)
        err = same_failure(
            lambda: parallel_time(SPEC, 4, paid, OVERLAP, policy),
            lambda: reference_parallel_time(SPEC, 4, paid, OVERLAP, policy),
        )
        assert isinstance(err, ConfigurationError)

    @pytest.mark.parametrize(
        "network_axis, net_work, beta",
        [(None, 1.0, 1e300), (0, 1.0, 1e300), (None, 1.7e308, 1e108)],
    )
    def test_transfer_overflow(self, network_axis, net_work, beta):
        # beta * D overflows to inf (1e300 * 1e200), or the finite
        # transfer 1e308 overflows once added to a huge work component.
        spec = OperatorSpec(name="op", work=WorkVector([1.0, 1.0, net_work]), data_volume=1e200)
        comm = CommunicationModel(alpha=0.015, beta=beta)
        policy = CoordinatorPolicy(network_axis=network_axis)
        err = same_failure(
            lambda: parallel_time(spec, 2, comm, OVERLAP, policy),
            lambda: reference_parallel_time(spec, 2, comm, OVERLAP, policy),
        )
        assert isinstance(err, InvalidWorkVectorError)

    @pytest.mark.parametrize("cpu_fraction", [0.0, 0.5])
    def test_startup_overflow(self, cpu_fraction):
        comm = CommunicationModel(alpha=1e308, beta=0.0)
        policy = CoordinatorPolicy(cpu_fraction=cpu_fraction)
        err = same_failure(
            lambda: parallel_time(SPEC, 3, comm, OVERLAP, policy),
            lambda: reference_parallel_time(SPEC, 3, comm, OVERLAP, policy),
        )
        assert isinstance(err, InvalidWorkVectorError)

    @pytest.mark.parametrize("n", [0, -1])
    def test_degree_below_one(self, n):
        comm = CommunicationModel(alpha=0.015, beta=0.6e-6)
        err = same_failure(
            lambda: parallel_time(SPEC, n, comm, OVERLAP),
            lambda: reference_parallel_time(SPEC, n, comm, OVERLAP),
        )
        assert isinstance(err, SchedulingError)

    def test_custom_overlap_bound_violation(self):
        class Broken(OverlapModel):
            def _t_seq_unchecked(self, work):
                return 0.5 * work.length()  # below the feasible floor

        comm = CommunicationModel(alpha=0.015, beta=0.6e-6)
        err = same_failure(
            lambda: parallel_time(SPEC, 2, comm, Broken()),
            lambda: reference_parallel_time(SPEC, 2, comm, Broken()),
        )
        assert isinstance(err, ModelValidationError)
