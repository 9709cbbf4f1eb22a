"""Heterogeneous site capacities: spec model, identity and oracle tests.

Three layers of guarantees:

* **Spec model** — :class:`repro.core.cluster.ClusterSpec` validation,
  the ``--cluster`` parser, spec-string round-trips, and the uniform
  normalization contract (``capacities_or_none()`` is the ``None``
  sentinel every kernel reads as "homogeneous fast path").
* **Uniform byte-identity** (the load-bearing invariant of the whole
  capacity model) — with every capacity exactly 1.0, the packer across
  all sort × rule combinations, all six registry algorithms, the
  rescheduler, and the serializers produce *byte-identical* output to
  runs that never mention capacities at all.
* **Heterogeneous oracles** — the heap packer equals the rescanning
  reference on short and long shelves; the in-place
  ``set_capacities`` repair equals the cold-rebuild oracle; simulated
  completion times scale as ``t / c``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

try:
    import numpy as np
except ImportError:  # no-numpy CI job: core kernels only
    np = None  # type: ignore[assignment]

from repro import (
    CloneItem,
    ClusterSpec,
    ConfigurationError,
    ConvexCombinationOverlap,
    PlacedClone,
    PlacementRule,
    ScheduleDelta,
    Site,
    SiteClass,
    SortKey,
    WorkVector,
    pack_vectors,
    pack_vectors_reference,
    parse_cluster_spec,
    reschedule_reference,
    reschedule_schedule,
)
from repro.exceptions import SchedulingError, ServiceError
from repro.experiments.config import ExperimentConfig
from repro.serialization import (
    cluster_spec_from_dict,
    cluster_spec_to_dict,
    schedule_delta_from_dict,
    schedule_delta_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.serve import ServeConfig, SitePool
from repro.sim import SharingPolicy, simulate_site

OVERLAP = ConvexCombinationOverlap(0.5)

PROPERTY_SETTINGS = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def items_of(n, d=3, seed=0, max_clones=3, prefix="op"):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        for k in range(rng.randint(1, max_clones)):
            out.append(
                CloneItem(
                    operator=f"{prefix}{i}",
                    clone_index=k,
                    work=WorkVector([rng.uniform(0.1, 10.0) for _ in range(d)]),
                )
            )
    return out


class TestSiteClass:
    def test_defaults_to_unit_capacity(self):
        cls = SiteClass(name="gen1", count=4)
        assert cls.capacity == 1.0

    @pytest.mark.parametrize("name", ["", "a:b", "a,b"])
    def test_rejects_bad_names(self, name):
        with pytest.raises(ConfigurationError):
            SiteClass(name=name, count=1)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            SiteClass(name="x", count=0)

    @pytest.mark.parametrize(
        "capacity", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_rejects_bad_capacity(self, capacity):
        with pytest.raises(ConfigurationError):
            SiteClass(name="x", count=1, capacity=capacity)


class TestClusterSpec:
    def test_capacities_in_declaration_order(self):
        spec = ClusterSpec(
            (SiteClass("fast", 2, 2.0), SiteClass("slow", 3, 0.5))
        )
        assert spec.p == 5
        assert spec.capacities() == (2.0, 2.0, 0.5, 0.5, 0.5)
        assert spec.total_capacity() == 5.5
        assert not spec.is_uniform()
        assert spec.capacities_or_none() == spec.capacities()

    def test_uniform_spec_yields_none_sentinel(self):
        spec = ClusterSpec.uniform(7)
        assert spec.p == 7
        assert spec.is_uniform()
        assert spec.capacities_or_none() is None
        # Total capacity of p unit sites is exactly float(p): the
        # congestion bound l(S)/C stays bit-identical to l(S)/P.
        assert spec.total_capacity() == 7.0

    def test_rejects_empty_and_duplicate_classes(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(())
        with pytest.raises(ConfigurationError):
            ClusterSpec((SiteClass("a", 1), SiteClass("a", 2)))

    def test_uniform_rejects_nonpositive_p(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec.uniform(0)


class TestParseClusterSpec:
    def test_bare_integer_is_uniform(self):
        spec = parse_cluster_spec("12")
        assert spec == ClusterSpec.uniform(12)

    def test_classes_with_and_without_capacity(self):
        spec = parse_cluster_spec("fast:4:2.0,slow:12")
        assert spec.capacities() == (2.0,) * 4 + (1.0,) * 12

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "abc",
            "fast:4:2.0:extra",
            "fast:x:2.0",
            "fast:4:fast",
            "fast:4:2.0,,slow:2",
            "fast:4:0.0",
            "fast:0:1.0",
            "fast:4,fast:2",
        ],
    )
    def test_rejects_malformed_specs(self, text):
        with pytest.raises(ConfigurationError):
            parse_cluster_spec(text)

    def test_spec_string_round_trips(self):
        for text in ("8", "fast:4:2.0,slow:12:0.5", "a:1:0.25,b:2,c:3:4.0"):
            spec = parse_cluster_spec(text)
            assert parse_cluster_spec(spec.spec_string()) == spec

    def test_codec_round_trips(self):
        spec = parse_cluster_spec("fast:4:2.0,slow:12:0.5")
        assert cluster_spec_from_dict(cluster_spec_to_dict(spec)) == spec


# Every deterministic sort × rule combination; RANDOM variants are
# exercised separately with mirrored seeded generators.
DETERMINISTIC_GRID = [
    (sort, rule)
    for sort in (SortKey.MAX_COMPONENT, SortKey.TOTAL, SortKey.INPUT_ORDER)
    for rule in (
        PlacementRule.LEAST_LOADED_LENGTH,
        PlacementRule.MIN_RESULTING_LENGTH,
        PlacementRule.ROUND_ROBIN,
        PlacementRule.FIRST_FIT,
    )
]


class TestUniformByteIdentity:
    """All capacities 1.0 ⇒ bit-identical to the capacity-free path."""

    @pytest.mark.parametrize("sort,rule", DETERMINISTIC_GRID)
    def test_pack_vectors_grid(self, sort, rule):
        items = items_of(30, seed=3)
        baseline = pack_vectors(items, p=8, overlap=OVERLAP, sort=sort, rule=rule)
        uniform = pack_vectors(
            items, p=8, overlap=OVERLAP, sort=sort, rule=rule,
            capacities=(1.0,) * 8,
        )
        assert schedule_to_dict(uniform) == schedule_to_dict(baseline)

    def test_pack_vectors_random_variants(self):
        items = items_of(20, seed=5)
        baseline = pack_vectors(
            items, p=6, overlap=OVERLAP, sort=SortKey.RANDOM,
            rule=PlacementRule.RANDOM, rng=random.Random(9),
        )
        uniform = pack_vectors(
            items, p=6, overlap=OVERLAP, sort=SortKey.RANDOM,
            rule=PlacementRule.RANDOM, rng=random.Random(9),
            capacities=(1.0,) * 6,
        )
        assert schedule_to_dict(uniform) == schedule_to_dict(baseline)

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=40),
        # constraint (A) forbids co-resident clones of one operator, so
        # p must cover the widest operator (items_of caps clones at 3).
        p=st.integers(min_value=3, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_pack_vectors_property(self, n, p, seed):
        items = items_of(n, seed=seed)
        baseline = pack_vectors(items, p=p, overlap=OVERLAP)
        uniform = pack_vectors(
            items, p=p, overlap=OVERLAP, capacities=[1.0] * p
        )
        assert schedule_to_dict(uniform) == schedule_to_dict(baseline)

    def test_uniform_schedule_serializes_capacity_free(self):
        uniform = pack_vectors(
            items_of(10), p=4, overlap=OVERLAP, capacities=(1.0,) * 4
        )
        payload = schedule_to_dict(uniform)
        # The payload must be byte-identical to pre-capacity payloads —
        # store keys hash it, so even a redundant key would orphan
        # every historical cache entry.
        assert "capacities" not in payload

    def test_capacity_free_delta_serializes_without_key(self):
        delta = ScheduleDelta(remove_sites=(1,))
        assert "set_capacities" not in schedule_delta_to_dict(delta)

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        removed=st.integers(min_value=0, max_value=3),
    )
    def test_reschedule_property(self, seed, removed):
        delta = ScheduleDelta(remove_sites=tuple(range(removed)))
        baseline = pack_vectors(items_of(20, seed=seed), p=8, overlap=OVERLAP)
        uniform = pack_vectors(
            items_of(20, seed=seed), p=8, overlap=OVERLAP,
            capacities=(1.0,) * 8,
        )
        reschedule_schedule(baseline, delta, overlap=OVERLAP)
        reschedule_schedule(uniform, delta, overlap=OVERLAP)
        assert schedule_to_dict(uniform) == schedule_to_dict(baseline)


@pytest.mark.skipif(np is None, reason="query generation requires numpy")
class TestUniformRegistryIdentity:
    """Every registry algorithm is capacity-invariant at uniform 1.0."""

    ALGORITHMS = (
        "treeschedule", "synchronous", "hong", "optbound", "onedim",
        "malleable",
    )

    @staticmethod
    def _run(name, cluster):
        from repro import PAPER_PARAMETERS, annotate_plan, generate_query
        from repro.engine import ScheduleRequest, get_algorithm

        query = generate_query(6, np.random.default_rng(7))
        annotate_plan(query.operator_tree, PAPER_PARAMETERS)
        return get_algorithm(name)(
            query, ScheduleRequest(p=8, cluster=cluster)
        )

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_uniform_cluster_is_byte_identical(self, name):
        from repro.serialization import phased_schedule_to_dict

        baseline = self._run(name, None)
        uniform = self._run(name, ClusterSpec.uniform(8))
        assert uniform.response_time == baseline.response_time
        assert uniform.degrees == baseline.degrees
        if baseline.phased_schedule is None:
            assert uniform.phased_schedule is None
        else:
            assert phased_schedule_to_dict(
                uniform.phased_schedule
            ) == phased_schedule_to_dict(baseline.phased_schedule)

    def test_mismatched_cluster_size_rejected(self):
        from repro.engine import ScheduleRequest

        with pytest.raises(ConfigurationError):
            ScheduleRequest(p=8, cluster=ClusterSpec.uniform(9))


def capacity_vectors(p):
    return st.lists(
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
        min_size=p, max_size=p,
    )


class TestHeterogeneousOracles:
    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_packer_matches_reference_short_shelf(self, n, seed, data):
        p = 6
        capacities = data.draw(capacity_vectors(p))
        items = items_of(n, seed=seed, max_clones=2)
        fast = pack_vectors(
            items, p=p, overlap=OVERLAP, capacities=capacities
        )
        slow = pack_vectors_reference(
            items, p=p, overlap=OVERLAP, capacities=capacities
        )
        assert schedule_to_dict(fast) == schedule_to_dict(slow)

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_packer_matches_reference_long_shelf(self, seed, data):
        p = 10
        capacities = data.draw(capacity_vectors(p))
        items = items_of(64, seed=seed, max_clones=2)
        fast = pack_vectors(
            items, p=p, overlap=OVERLAP, capacities=capacities
        )
        slow = pack_vectors_reference(
            items, p=p, overlap=OVERLAP, capacities=capacities
        )
        assert schedule_to_dict(fast) == schedule_to_dict(slow)

    def test_fast_sites_attract_work(self):
        # One 4x site among unit sites must end up with the largest
        # share of placed work under the capacity-normalized rule.
        items = items_of(40, seed=2)
        schedule = pack_vectors(
            items, p=5, overlap=OVERLAP, capacities=(4.0, 1.0, 1.0, 1.0, 1.0)
        )
        counts = [len(schedule.site(j).clones) for j in range(5)]
        assert counts[0] == max(counts)
        assert schedule.makespan() > 0.0

    def test_heterogeneous_schedule_round_trips(self):
        capacities = (2.0, 1.0, 0.5)
        schedule = pack_vectors(
            items_of(12, seed=4), p=3, overlap=OVERLAP, capacities=capacities
        )
        payload = schedule_to_dict(schedule)
        assert payload["capacities"] == list(capacities)
        restored = schedule_from_dict(payload)
        assert schedule_to_dict(restored) == payload
        assert restored.capacities() == capacities


class TestSetCapacitiesDelta:
    def test_delta_round_trips(self):
        delta = ScheduleDelta(set_capacities=((2, 0.5), (0, 4.0)))
        payload = schedule_delta_to_dict(delta)
        assert payload["set_capacities"] == [[2, 0.5], [0, 4.0]]
        assert schedule_delta_from_dict(payload) == delta

    def test_delta_rejects_bad_values(self):
        with pytest.raises(SchedulingError):
            ScheduleDelta(set_capacities=((0, 0.0),))
        with pytest.raises(SchedulingError):
            ScheduleDelta(set_capacities=((0, float("nan")),))
        with pytest.raises(SchedulingError):
            ScheduleDelta(set_capacities=((0, 2.0), (0, 3.0)))

    def test_resize_changes_makespan_not_residents(self):
        schedule = pack_vectors(items_of(20, seed=1), p=6, overlap=OVERLAP)
        residents = [
            [c.operator for c in schedule.site(j).clones] for j in range(6)
        ]
        before = schedule.makespan()
        stats = reschedule_schedule(
            schedule,
            ScheduleDelta(set_capacities=((0, 2.0),)),
            overlap=OVERLAP,
        )
        assert stats.sites_resized == 1
        assert stats.clones_moved == 0
        after = [
            [c.operator for c in schedule.site(j).clones] for j in range(6)
        ]
        assert after == residents  # in-place resize: nobody migrates
        assert schedule.site(0).capacity == 2.0
        assert schedule.makespan() <= before

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        site=st.integers(min_value=0, max_value=5),
        capacity=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    )
    def test_fast_path_matches_reference(self, seed, site, capacity):
        delta = ScheduleDelta(set_capacities=((site, capacity),))
        schedule = pack_vectors(items_of(18, seed=seed), p=6, overlap=OVERLAP)
        oracle = reschedule_reference(schedule, delta, overlap=OVERLAP)
        reschedule_schedule(schedule, delta, overlap=OVERLAP)
        assert schedule_to_dict(schedule) == schedule_to_dict(oracle)

    def test_resize_out_of_range_site_rejected(self):
        schedule = pack_vectors(items_of(5), p=3, overlap=OVERLAP)
        with pytest.raises(SchedulingError):
            reschedule_schedule(
                schedule,
                ScheduleDelta(set_capacities=((7, 2.0),)),
                overlap=OVERLAP,
            )


class TestSimulatorScaling:
    @pytest.mark.parametrize(
        "policy",
        [SharingPolicy.OPTIMAL_STRETCH, SharingPolicy.FAIR_SHARE,
         SharingPolicy.SERIAL],
    )
    def test_completion_time_scales_inversely(self, policy):
        def site_with(capacity):
            site = Site(0, 3, capacity)
            for k, work in enumerate(([4.0, 1.0, 2.0], [2.0, 3.0, 1.0])):
                wv = WorkVector(work)
                site.place(
                    PlacedClone(
                        operator=f"op{k}", clone_index=0, work=wv,
                        t_seq=OVERLAP.t_seq(wv),
                    )
                )
            return site

        unit = simulate_site(site_with(1.0), policy)
        double = simulate_site(site_with(2.0), policy)
        assert double.completion_time == pytest.approx(
            unit.completion_time / 2.0
        )


class TestServeElasticity:
    def test_set_capacity_before_install(self):
        pool = SitePool(p=4, overlap=OVERLAP)
        assert pool.capacity_of(2) == 1.0
        pool.set_capacity(2, 0.5)
        assert pool.capacity_of(2) == 0.5
        assert pool.resizes == 1

    def test_set_capacity_validation(self):
        pool = SitePool(p=4, overlap=OVERLAP)
        with pytest.raises(ServiceError):
            pool.set_capacity(9, 2.0)
        with pytest.raises(SchedulingError):
            pool.set_capacity(0, -1.0)

    def test_heterogeneous_pool_requires_matching_length(self):
        with pytest.raises(ConfigurationError):
            SitePool(p=4, overlap=OVERLAP, capacities=(1.0, 2.0))
        pool = SitePool(p=2, overlap=OVERLAP, capacities=(2.0, 0.5))
        assert pool.capacity_of(0) == 2.0
        assert pool.capacity_of(1) == 0.5

    def test_serve_config_validates_capacity_events(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(capacity_events=((10.0, 99, 2.0),))
        with pytest.raises(ConfigurationError):
            ServeConfig(capacity_events=((-1.0, 0, 2.0),))
        with pytest.raises(ConfigurationError):
            ServeConfig(capacity_events=((10.0, 0, 0.0),))
        with pytest.raises(ConfigurationError):
            ServeConfig(capacity_events=((10.0, 0),))
        config = ServeConfig(capacity_events=[(10, 0, 2)])
        assert config.capacity_events == ((10.0, 0, 2.0),)

    def test_serve_config_validates_cluster_size(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(cluster=ClusterSpec.uniform(5))


class TestExperimentConfigCluster:
    def test_uniform_cluster_normalized_to_none(self):
        config = ExperimentConfig(
            site_counts=(8,), cluster=ClusterSpec.uniform(8)
        )
        assert config.cluster is None

    def test_site_axis_must_match_cluster(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                site_counts=(8, 16),
                cluster=parse_cluster_spec("fast:4:2.0,slow:4"),
            )

    def test_heterogeneous_cluster_kept(self):
        spec = parse_cluster_spec("fast:4:2.0,slow:4")
        config = ExperimentConfig(site_counts=(8,), cluster=spec)
        assert config.cluster == spec
