"""Regression tests: ServingConfig knob combinations fail up front.

Before the fix, a bad queue bound or a ``deadline_s`` attached to the
wrong policy surfaced as a ``ValueError`` from ``AdmissionQueue`` deep
inside ``QueryServer.run`` — after the cost model had been built and,
in a sweep, after earlier points had already run.  Now every knob
combination is validated at ``ServingConfig`` construction.
"""

import functools
import math

import pytest
from hypothesis import given, strategies as st

from repro.cluster import BreakerConfig, BrownoutConfig, RetryPolicy
from repro.cluster.config import ClusterConfig, ClusterError
from repro.core.api import is_count, is_real
from repro.core.engine import DispatchPolicy
from repro.faults.plan import ComponentFailure, FaultPlan
from repro.index.build import IndexBuildConfig
from repro.index.kmeans import IndexError_
from repro.ingest.compaction import CompactionPolicy
from repro.ingest.lifecycle import LifecycleConfig
from repro.ingest.store import IngestError
from repro.serving.arrivals import INGEST_COMPAT, ArrivalEvent
from repro.serving.server import QueryServer, ServingConfig
from repro.serving.sweep import sweep_offered_load
from repro.tenancy.spec import TenancyConfig, TenantSpec
from repro.workloads.apps import APP_NAMES

#: any value a caller might pass for a size or a time: counts, floats
#: (NaN and infinities included), bools, strings and None
ANY_VALUE = st.one_of(
    st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)


def _rejects_naming(build, field, value, error=ValueError):
    """``build(field=value)`` raises one ``error`` naming ``field``."""
    with pytest.raises(error, match=field):
        build(**{field: value})


class TestServingConfigValidation:
    def test_defaults_valid(self):
        ServingConfig()

    @pytest.mark.parametrize("kwargs", [
        {"queue_bound": 0},
        {"queue_bound": -4},
        {"max_batch": 0},
        {"max_batch": -1},
        {"policy": "frobnicate"},
        # deadline policy without a bound / with a non-positive bound
        {"policy": "deadline"},
        {"policy": "deadline", "deadline_s": 0.0},
        {"policy": "deadline", "deadline_s": -0.5},
        # deadline_s attached to a policy that never reads it
        {"policy": "reject", "deadline_s": 0.5},
        {"policy": "drop-oldest", "deadline_s": 0.5},
        {"cache_entries": 64, "cache_threshold": 0.0},
        {"cache_entries": 64, "cache_threshold": 1.0},
        {"cache_entries": 64, "cache_threshold": -0.2},
        {"fidelity": "quantum"},
        {"shard_placement": "alphabetical"},
        {"features": 0},
        {"n_servers": 0},
        {"n_shards": 0},
        {"n_replicas": 0},
        {"cache_entries": -1},
    ])
    def test_bad_combination_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_error_messages_name_the_knob(self):
        with pytest.raises(ValueError, match="queue_bound"):
            ServingConfig(queue_bound=0)
        with pytest.raises(ValueError, match="deadline_s only applies"):
            ServingConfig(policy="reject", deadline_s=1.0)
        with pytest.raises(ValueError, match="fidelity"):
            ServingConfig(fidelity="nope")

    def test_valid_combinations_still_construct(self):
        ServingConfig(policy="deadline", deadline_s=0.5)
        ServingConfig(policy="drop-oldest")
        ServingConfig(cache_entries=16, cache_threshold=0.10)
        ServingConfig(cache_entries=0, cache_threshold=0.10)
        ServingConfig(n_shards=4, n_replicas=2, shard_placement="hash")


class TestRunValidation:
    def test_reserved_ingest_key_rejected(self):
        # QueryServer serves reads only: an arrival under the tenancy
        # plane's write key would be ledgered as a write and never
        # counted as completed
        server = QueryServer(ServingConfig(app="tir", features=50_000))
        arrivals = [
            ArrivalEvent(time_s=0.0, compat="tir"),
            ArrivalEvent(time_s=0.01, compat=INGEST_COMPAT),
        ]
        with pytest.raises(ValueError, match="reserved"):
            server.run(arrivals)


class TestSweepValidation:
    CONFIG = ServingConfig(app="tir", features=50_000, queue_bound=8)

    def test_non_positive_qps_point_rejected(self):
        with pytest.raises(ValueError, match="qps_points"):
            sweep_offered_load(
                self.CONFIG, n_queries=4, qps_points=[1.0, 0.0]
            )
        with pytest.raises(ValueError, match="qps_points"):
            sweep_offered_load(
                self.CONFIG, n_queries=4, qps_points=[-2.0]
            )

    def test_non_positive_load_fraction_rejected(self):
        with pytest.raises(ValueError, match="load_fractions"):
            sweep_offered_load(
                self.CONFIG, n_queries=4, load_fractions=(0.5, 0.0)
            )

    def test_non_positive_queries_rejected(self):
        with pytest.raises(ValueError, match="n_queries"):
            sweep_offered_load(self.CONFIG, n_queries=0)


class TestConfigConstructorFuzz:
    """Every bad size, time or failure spec raises one error naming its
    field: a ``ValueError`` (``FaultPlan`` and ``ComponentFailure`` too),
    ``ClusterError`` from ``ClusterConfig`` (its policy objects too),
    ``IndexError_`` from ``IndexBuildConfig`` or ``IngestError`` from
    ``CompactionPolicy`` and ``LifecycleConfig``.

    A valid value constructs; an invalid one never reaches a run (where
    it used to die as a ``TypeError`` or ``KeyError`` deep inside the
    batcher, the server loop, numpy or the app table).
    """

    SERVING_COUNTS = (
        ("features", 1), ("queue_bound", 1), ("max_batch", 1),
        ("n_servers", 1), ("cache_entries", 0), ("n_shards", 1),
        ("n_replicas", 1),
    )
    TENANCY_COUNTS = (
        ("seed", 0), ("features", 1), ("n_shards", 1), ("n_replicas", 1),
        ("max_batch", 1), ("min_inserts", 1),
    )
    TENANCY_REALS = (("day_s", 0.0), ("quantum", 0.0), ("skew_threshold", 1.0))

    @staticmethod
    def _tenancy(**kwargs):
        return TenancyConfig(tenants=(TenantSpec(name="t"),), **kwargs)

    @given(st.sampled_from(SERVING_COUNTS), ANY_VALUE)
    def test_serving_counts(self, field_low, value):
        field, low = field_low
        if is_count(value, low):
            assert getattr(ServingConfig(**{field: value}), field) == value
        else:
            _rejects_naming(ServingConfig, field, value)

    @given(st.one_of(ANY_VALUE, st.sampled_from(APP_NAMES)))
    def test_serving_app(self, value):
        if isinstance(value, str) and value.lower() in APP_NAMES:
            ServingConfig(app=value)
        else:
            _rejects_naming(ServingConfig, "app", value)

    @given(ANY_VALUE)
    def test_serving_deadline_and_threshold(self, value):
        deadline = functools.partial(ServingConfig, policy="deadline")
        cached = functools.partial(ServingConfig, cache_entries=4)
        if is_real(value, 0.0):
            deadline(deadline_s=value)
        else:
            _rejects_naming(deadline, "deadline_s", value)
        if is_real(value, 0.0) and value < 1.0:
            cached(cache_threshold=value)
        else:
            _rejects_naming(cached, "cache_threshold", value)

    @given(st.sampled_from(TENANCY_COUNTS), ANY_VALUE)
    def test_tenancy_counts(self, field_low, value):
        field, low = field_low
        if is_count(value, low):
            assert getattr(self._tenancy(**{field: value}), field) == value
        else:
            _rejects_naming(self._tenancy, field, value)

    @given(
        st.sampled_from(TENANCY_REALS + (("rebalance_row_seconds", None),)),
        ANY_VALUE,
    )
    def test_tenancy_reals(self, field_bound, value):
        field, bound = field_bound
        if bound is None:  # rebalance_row_seconds may be exactly 0
            valid = is_real(value) and value >= 0
        else:
            valid = is_real(value, bound)
        if valid:
            self._tenancy(**{field: value})
        else:
            _rejects_naming(self._tenancy, field, value)

    TENANT_COUNTS = (("n_intents", 1), ("ingest_key_universe", 1), ("queue_bound", 1))
    #: field -> whether a real value is in range
    TENANT_REALS = {
        "weight": lambda v: v > 0,
        "base_qps": lambda v: v > 0,
        "amplitude": lambda v: 0 <= v < 1,
        "phase": lambda v: 0 <= v < 1,
        "write_fraction": lambda v: 0 <= v < 1,
        "zipf_alpha": lambda v: 0 <= v < math.inf,
        "ingest_key_alpha": lambda v: 0 <= v < math.inf,
    }

    @given(st.sampled_from(TENANT_COUNTS), ANY_VALUE)
    def test_tenant_counts(self, field_low, value):
        field, low = field_low
        tenant = functools.partial(TenantSpec, name="t")
        if is_count(value, low):
            assert getattr(tenant(**{field: value}), field) == value
        else:
            _rejects_naming(tenant, field, value)

    @given(st.sampled_from(sorted(TENANT_REALS)), ANY_VALUE)
    def test_tenant_reals(self, field, value):
        tenant = functools.partial(TenantSpec, name="t")
        if is_real(value) and self.TENANT_REALS[field](value):
            tenant(**{field: value})
        else:
            _rejects_naming(tenant, field, value)

    @given(ANY_VALUE)
    def test_failed_accels(self, value):
        if is_count(value):
            ServingConfig(failed_accels=(value,))
        else:
            _rejects_naming(ServingConfig, "failed_accels", (value,))

    #: a shard id or a (shard, replica) pair, in range of a 2 x 2
    #: deployment or not, with non-integer entries mixed in
    FAIL_SHARD = st.one_of(
        ANY_VALUE,
        st.tuples(ANY_VALUE, ANY_VALUE),
        st.tuples(st.integers(-1, 3), st.integers(-1, 3)),
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    )

    @given(FAIL_SHARD)
    def test_fail_shards(self, spec):
        pair = spec if isinstance(spec, tuple) else (spec, 0)
        valid = (
            len(pair) == 2
            and all(is_count(i) for i in pair)
            and pair[0] < 2
            and pair[1] < 2
        )
        serving = functools.partial(ServingConfig, n_shards=2, n_replicas=2)
        cluster = functools.partial(ClusterConfig, n_shards=2, n_replicas=2)
        if valid:
            assert ClusterConfig(
                n_shards=2, n_replicas=2, fail_shards=(spec,)
            ).fail_shards == (tuple(int(i) for i in pair),)
            serving(fail_shards=(spec,))
        else:
            _rejects_naming(serving, "fail_shards", (spec,))
            _rejects_naming(cluster, "fail_shards", (spec,), ClusterError)

    FAILURE_COORDINATES = ("channel", "chip", "plane", "index")

    @given(st.sampled_from(FAILURE_COORDINATES), ANY_VALUE)
    def test_component_failure_coordinates(self, field, value):
        # a plane failure with every coordinate set; it needs the first three
        plane = functools.partial(
            ComponentFailure, "plane", **dict.fromkeys(self.FAILURE_COORDINATES, 0)
        )
        if is_count(value) or (value is None and field == "index"):
            assert getattr(plane(**{field: value}), field) == value
        else:
            _rejects_naming(plane, field, value)

    @given(ANY_VALUE)
    def test_component_failure_time(self, value):
        accelerator = functools.partial(ComponentFailure, "accelerator", index=0)
        if is_real(value) and value >= 0:
            assert accelerator(at_s=value).at_s == value
        else:
            _rejects_naming(accelerator, "at_s", value)

    #: ClusterConfig's policy-object fields and the type each must have
    CLUSTER_POLICIES = {
        "dispatch_policy": DispatchPolicy,
        "retry_policy": RetryPolicy,
        "breaker": BreakerConfig,
        "brownout": BrownoutConfig,
    }

    @given(
        st.sampled_from(sorted(CLUSTER_POLICIES)),
        st.one_of(ANY_VALUE, st.sampled_from(
            [kind() for kind in CLUSTER_POLICIES.values()]
        )),
    )
    def test_cluster_policy_types(self, field, value):
        kind = self.CLUSTER_POLICIES[field]
        if isinstance(value, kind) or (value is None and field != "dispatch_policy"):
            assert getattr(ClusterConfig(**{field: value}), field) is value
        else:
            _rejects_naming(ClusterConfig, field, value, ClusterError)

    BUILD_COUNTS = (
        ("n_lists", 1), ("iterations", 1), ("seed", 0), ("region_pages_per_block", 1),
    )
    #: field -> whether a real value is in range
    BUILD_REALS = {
        "op_fraction": lambda v: 0 <= v < 1,
        "headroom": lambda v: 1 <= v < math.inf,
    }
    POLICY_REALS = {
        "delta_threshold": lambda v: 0 < v < 1,
        "min_gap_s": lambda v: 0 <= v < math.inf,
    }

    @given(st.sampled_from(BUILD_COUNTS), ANY_VALUE)
    def test_index_build_counts(self, field_low, value):
        field, low = field_low
        build = functools.partial(IndexBuildConfig, n_lists=4)
        if is_count(value, low):
            assert getattr(build(**{field: value}), field) == value
        else:
            _rejects_naming(build, field, value, IndexError_)

    @given(st.sampled_from(sorted(BUILD_REALS)), ANY_VALUE)
    def test_index_build_reals(self, field, value):
        build = functools.partial(IndexBuildConfig, n_lists=4)
        if is_real(value) and self.BUILD_REALS[field](value):
            build(**{field: value})
        else:
            _rejects_naming(build, field, value, IndexError_)

    @given(ANY_VALUE)
    def test_compaction_chunk_rows(self, value):
        if is_count(value, 1):
            assert CompactionPolicy(chunk_rows=value).chunk_rows == value
        else:
            _rejects_naming(CompactionPolicy, "chunk_rows", value, IngestError)

    @given(st.sampled_from(sorted(POLICY_REALS)), ANY_VALUE)
    def test_compaction_reals(self, field, value):
        if is_real(value) and self.POLICY_REALS[field](value):
            CompactionPolicy(**{field: value})
        else:
            _rejects_naming(CompactionPolicy, field, value, IngestError)

    LIFECYCLE_COUNTS = (
        ("n_base", 1), ("rounds", 0), ("planted_per_round", 0),
        ("random_per_round", 1), ("deletes_per_round", 1),
        ("updates_per_round", 0), ("probe_queries", 1), ("k", 1),
        ("n_clusters", 1), ("n_probe", 1), ("region_blocks", 1),
        ("region_pages_per_block", 1), ("seed", 0),
    )
    #: the other fields held where any count of the fuzzed one fits
    #: ``n_probe <= n_clusters <= n_base``
    LIFECYCLE_ROOM = {
        "n_base": {"n_clusters": 1, "n_probe": 1},
        "n_clusters": {"n_probe": 1},
    }

    @given(st.sampled_from(LIFECYCLE_COUNTS), ANY_VALUE)
    def test_lifecycle_counts(self, field_low, value):
        field, low = field_low
        lifecycle = functools.partial(
            LifecycleConfig, **self.LIFECYCLE_ROOM.get(field, {})
        )
        if is_count(value, low):
            assert getattr(lifecycle(**{field: value}), field) == value
        else:
            _rejects_naming(lifecycle, field, value, IngestError)

    @given(st.one_of(
        ANY_VALUE, st.sampled_from(APP_NAMES + ["TIR", "ReId"]),
        st.builds(CompactionPolicy),
    ))
    def test_lifecycle_app_and_compaction(self, value):
        if isinstance(value, str) and value.lower() in APP_NAMES:
            LifecycleConfig(app=value)
        else:
            _rejects_naming(LifecycleConfig, "app", value, IngestError)
        if isinstance(value, CompactionPolicy):
            assert LifecycleConfig(compaction=value).compaction is value
        else:
            _rejects_naming(LifecycleConfig, "compaction", value, IngestError)

    @given(st.one_of(
        ANY_VALUE,
        st.lists(ANY_VALUE, max_size=3).map(tuple),
        st.lists(st.floats(-0.5, 1.5), max_size=3).map(tuple),
        st.lists(st.floats(0.0, 1.0), max_size=3),
    ))
    def test_lifecycle_interference_loads(self, loads):
        valid = isinstance(loads, tuple) and all(
            is_real(load) and 0 <= load <= 1 for load in loads
        )
        if valid:
            assert LifecycleConfig(interference_loads=loads).interference_loads == loads
        else:
            _rejects_naming(
                LifecycleConfig, "interference_loads", loads, IngestError
            )

    def test_lifecycle_values_seen_before_validation(self):
        # each used to construct and fail deep in run_lifecycle, or to
        # die as a bare TypeError in the constructor
        for kwargs in (
            {"app": "nope"}, {"seed": -1}, {"seed": 1.5}, {"compaction": 3},
            {"interference_loads": ("a",)}, {"interference_loads": 5},
        ):
            (field,) = kwargs
            _rejects_naming(LifecycleConfig, field, kwargs[field], IngestError)

    def test_build_and_policy_values_seen_before_validation(self):
        # each used to construct, or to die as a bare TypeError
        for kwargs in (
            {"region_pages_per_block": 2.5}, {"region_pages_per_block": True},
            {"iterations": "8"}, {"op_fraction": "x"}, {"headroom": None},
        ):
            (field,) = kwargs
            _rejects_naming(
                functools.partial(IndexBuildConfig, n_lists=4), field, kwargs[field],
                IndexError_,
            )
        for kwargs in ({"delta_threshold": "0.5"}, {"min_gap_s": "1"}):
            (field,) = kwargs
            _rejects_naming(CompactionPolicy, field, kwargs[field], IngestError)

    def test_failure_fields_seen_before_validation(self):
        # each used to die as a TypeError inside a run, or run while
        # silently ignoring a dead replica that does not exist
        for kwargs in (
            {"failed_accels": (1.5,)}, {"fail_shards": ("x",)},
            {"fail_shards": (5,)}, {"fail_shards": 3},
        ):
            (field,) = kwargs
            _rejects_naming(
                functools.partial(ServingConfig, features=20_000, n_shards=2),
                field, kwargs[field],
            )
        for kwargs in (
            {"queue_bound": 2.5}, {"n_intents": 1.5},
            {"weight": float("nan")}, {"base_qps": float("nan")},
        ):
            (field,) = kwargs
            _rejects_naming(functools.partial(TenantSpec, name="t"), field, kwargs[field])

    def test_failures_seen_before_validation(self):
        # each of these used to be accepted, or to die deep in a run
        for kwargs in (
            {"n_servers": 1.5}, {"max_batch": 2.5}, {"max_batch": True},
            {"queue_bound": 2.5}, {"features": float("nan")},
            {"app": "bogus"}, {"n_servers": "2"},
        ):
            (field,) = kwargs
            _rejects_naming(ServingConfig, field, kwargs[field])
        for kwargs in ({"n_shards": 1.5}, {"features": float("nan")}):
            (field,) = kwargs
            _rejects_naming(self._tenancy, field, kwargs[field])

    CLUSTER_COUNTS = (("n_shards", 1), ("n_replicas", 1), ("seed", 0))
    #: field -> whether a real value is in range
    CLUSTER_REALS = {
        "hedge_fraction": lambda v: 0 < v < math.inf,
        "straggler_spread": lambda v: 0 <= v < math.inf,
    }

    @given(st.sampled_from(CLUSTER_COUNTS), ANY_VALUE)
    def test_cluster_counts(self, field_low, value):
        field, low = field_low
        if is_count(value, low):
            assert getattr(ClusterConfig(**{field: value}), field) == value
        else:
            _rejects_naming(ClusterConfig, field, value, ClusterError)

    @given(st.sampled_from(sorted(CLUSTER_REALS)), ANY_VALUE)
    def test_cluster_reals(self, field, value):
        # None is the one non-number hedge_fraction takes: no hedging
        if (field == "hedge_fraction" and value is None) or (
            is_real(value) and self.CLUSTER_REALS[field](value)
        ):
            ClusterConfig(**{field: value})
        else:
            _rejects_naming(ClusterConfig, field, value, ClusterError)

    FAULT_COUNTS = (
        ("read_retry_max", 1), ("crc_retry_max", 1), ("program_retry_max", 1),
    )
    FAULT_RATES = (
        "read_retry_rate", "crc_error_rate", "program_fail_rate",
        "chip_failure_rate", "accel_failure_rate",
    )

    @given(st.sampled_from(FAULT_COUNTS), ANY_VALUE)
    def test_fault_plan_counts(self, field_low, value):
        field, low = field_low
        if is_count(value, low):
            assert getattr(FaultPlan(**{field: value}), field) == value
        else:
            _rejects_naming(FaultPlan, field, value)

    @given(st.sampled_from(FAULT_RATES), ANY_VALUE)
    def test_fault_plan_rates(self, field, value):
        if is_real(value) and 0 <= value <= 1:
            FaultPlan(**{field: value})
        else:
            _rejects_naming(FaultPlan, field, value)

    @given(st.one_of(
        ANY_VALUE,
        st.lists(ANY_VALUE, max_size=2),
        st.lists(st.builds(ComponentFailure, st.just("accelerator"),
                           index=st.integers(0, 3)), max_size=2),
        st.lists(st.builds(ComponentFailure, st.just("accelerator"),
                           index=st.integers(0, 3)), max_size=2).map(tuple),
    ))
    def test_fault_plan_failures(self, failures):
        if isinstance(failures, (list, tuple)) and all(
            isinstance(f, ComponentFailure) for f in failures
        ):
            assert FaultPlan(failures=failures).failures == tuple(failures)
        else:
            _rejects_naming(FaultPlan, "failures", failures)

    def test_cluster_and_fault_plan_values_seen_before_validation(self):
        # each used to construct, or to die as a bare TypeError
        for kwargs in (
            {"n_shards": 2.5}, {"n_shards": True}, {"seed": -1}, {"seed": 1.5},
            {"n_shards": "3"}, {"hedge_fraction": "x"},
            {"straggler_spread": None},
        ):
            (field,) = kwargs
            _rejects_naming(ClusterConfig, field, kwargs[field], ClusterError)
        for kwargs in (
            {"read_retry_max": 2.5}, {"failures": [1]},
            {"read_retry_rate": "0.1"},
        ):
            (field,) = kwargs
            _rejects_naming(FaultPlan, field, kwargs[field])
