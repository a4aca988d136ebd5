"""The multi-tenant plane end to end: parity, the production day, and
the scorecard fragment.

The headline check is **single-tenant parity**: one tenant on one
backend with the autoscaler off must reproduce the single-tenant
:class:`~repro.serving.server.QueryServer` batch for batch — identical
admission counts and bit-identical latency aggregates — because the
tenancy plane prices batches through the very same cost models.  The
rest exercises the scaled-down production day: conservation under
burst + failure + ingest, the degraded-window pricing, the autoscaler
reacting to a scripted overload, and the JSON scorecard shape the perf
gate consumes.
"""

import pytest

from repro.serving.arrivals import ArrivalEvent
from repro.serving.server import QueryServer, ServingConfig
from repro.tenancy.day import (
    ProductionDayReport,
    default_production_config,
    run_production_day,
)
from repro.tenancy.server import MultiTenantServer
from repro.tenancy.spec import (
    AutoscalerConfig,
    BurstSpec,
    TenancyConfig,
    TenantSpec,
)
from repro.tenancy.trace import generate_day
from tests.conftest import traced_peak_mb

#: a compressed day: long enough for diurnal shape + a burst window,
#: short enough for test wall-clock
SMALL_DAY_S = 4000.0


def small_production_config(**overrides):
    """The canonical production day, shrunk for tests."""
    kwargs = dict(seed=3, day_s=SMALL_DAY_S, features=2_000_000)
    kwargs.update(overrides)
    return default_production_config(**kwargs)


class TestSingleTenantParity:
    """One tenant, one backend, autoscaler off == QueryServer."""

    def test_aggregates_bit_identical(self):
        spec = TenantSpec(
            name="solo",
            base_qps=8.0,   # ~1.5x saturation at 8M rows: real queueing
            amplitude=0.0,
            apps=(("tir", 1.0),),
            deadline_class="standard",  # reject policy, like the server
            queue_bound=8,
        )
        config = TenancyConfig(
            tenants=(spec,),
            day_s=400.0,
            seed=5,
            features=8_000_000,
            n_shards=1,
            n_replicas=1,
            max_batch=4,
            initial_backends=1,
            autoscaler=AutoscalerConfig(enabled=False),
        )
        trace = generate_day(config)
        assert trace, "need a nonempty day"
        plane = MultiTenantServer(config)
        day = plane.run(trace, autoscale=False)
        solo = day.tenants["solo"]

        server = QueryServer(ServingConfig(
            app="tir",
            features=8_000_000,
            queue_bound=8,
            policy="reject",
            max_batch=4,
            n_servers=1,
        ))
        result = server.run([
            ArrivalEvent(
                time_s=a.time_s, intent=a.intent, priority=0, compat="tir",
            )
            for a in trace
        ])

        assert solo.offered == result.arrived
        assert solo.admitted == result.admitted
        assert solo.completed == result.completed
        assert solo.rejected == result.rejected
        assert solo.evicted == result.evicted
        assert solo.expired == result.expired
        # bit-identical aggregates: same batches at the same times
        assert solo.mean_latency_s == result.mean_latency_s
        assert solo.p50_s == result.p50_s
        assert solo.p99_s == result.p99_s
        assert solo.p999_s == result.p999_s
        assert solo.max_latency_s == result.max_latency_s
        assert solo.mean_wait_s == result.mean_wait_s
        assert day.mean_batch == result.mean_batch
        assert solo.conserved and result.conserved
        # the load level genuinely exercised admission control
        assert solo.rejected > 0
        assert solo.completed > 0


class TestProductionDay:
    @pytest.fixture(scope="class")
    def report(self) -> ProductionDayReport:
        return run_production_day(small_production_config())

    def test_every_tenant_conserved(self, report):
        day = report.result
        assert day.conserved
        for name, t in day.tenants.items():
            assert t.offered > 0, name
            assert t.completed > 0, name
            assert 0.0 < t.goodput_fraction <= 1.0
            assert t.offered == t.admitted + t.rejected
        # ingest really flowed and was completed
        ingest = day.tenants["ingestpipe"]
        assert ingest.writes_offered > 0
        assert ingest.writes_completed > 0

    def test_isolation_pair_present_and_directional(self, report):
        assert report.aggressor == "search"
        ratios = report.isolation_ratios()
        assert set(ratios) == {"analytics", "ingestpipe"}
        # victims are never *faster* with the aggressor around (equal
        # is possible when the p99 sample lands outside the burst)
        assert all(r >= 0.99 for r in ratios.values()), ratios
        # paired runs kept victim arrivals byte-identical
        for name in ratios:
            with_r = report.with_aggressor_fixed.tenants[name]
            solo_r = report.without_aggressor.tenants[name]
            assert with_r.offered == solo_r.offered

    def test_action_log_is_a_consistent_chain(self, report):
        day = report.result
        backends = small_production_config().initial_backends
        for action in day.actions:
            assert action.backends_before == backends
            assert abs(action.backends_after - backends) == 1
            backends = action.backends_after
            assert action.effective_s > action.at_s
        assert day.peak_backends >= day.final_backends
        assert day.final_backends == backends

    def test_report_dict_shape(self, report):
        d = report.as_dict()
        assert set(d) == {"day", "aggressor", "isolation_p99_ratio"}
        day = d["day"]
        for key in (
            "tenants", "scale_ups", "scale_downs", "alerts",
            "first_alert_s", "peak_backends", "final_backends",
            "rebalances", "rebalance_rows_moved", "mean_batch",
            "utilization", "conserved",
        ):
            assert key in day
        assert day["conserved"] == 1
        for row in day["tenants"].values():
            assert row["conserved"] == 1

    def test_determinism(self, report):
        again = run_production_day(small_production_config())
        assert again.as_dict() == report.as_dict()


def test_server_build_prices_sizes_not_ids():
    # four clustered servers over 32M rows: per-feature id arrays would
    # be ~1 GB, shard sizes are a handful of integers
    config = default_production_config()
    assert traced_peak_mb(lambda: MultiTenantServer(config)) < 64


class TestDegradedWindow:
    def test_failure_prices_the_detection_ladder(self):
        config = small_production_config()
        plane = MultiTenantServer(config)
        assert config.failure is not None
        for app, healthy in plane._healthy.items():
            degraded = plane._degraded[app]
            assert (
                degraded.cost.service_seconds(4)
                > healthy.cost.service_seconds(4)
            ), app

    def test_failure_day_is_slower_than_clean_day(self):
        config = small_production_config()
        clean = TenancyConfig(
            tenants=config.tenants, day_s=config.day_s, seed=config.seed,
            features=config.features, n_shards=config.n_shards,
            n_replicas=config.n_replicas, max_batch=config.max_batch,
            initial_backends=config.initial_backends,
            autoscaler=config.autoscaler, failure=None,
            skew_threshold=config.skew_threshold,
            min_inserts=config.min_inserts,
        )
        trace = generate_day(config)
        with_fail = MultiTenantServer(config).run(trace, autoscale=False)
        without = MultiTenantServer(clean).run(trace, autoscale=False)
        total_with = sum(
            t.mean_latency_s * t.completed
            for t in with_fail.tenants.values()
        )
        total_without = sum(
            t.mean_latency_s * t.completed
            for t in without.tenants.values()
        )
        assert total_with > total_without


class TestAutoscalerOnPlane:
    def test_scripted_overload_triggers_scale_up(self):
        day_s = 3000.0
        config = TenancyConfig(
            tenants=(
                TenantSpec(
                    name="hot",
                    base_qps=2.0,
                    amplitude=0.0,
                    apps=(("tir", 1.0),),
                    deadline_class="interactive",
                    queue_bound=64,
                    bursts=(BurstSpec(
                        start_fraction=0.3,
                        duration_fraction=0.3,
                        multiplier=6.0,
                    ),),
                ),
            ),
            day_s=day_s,
            seed=1,
            features=4_000_000,
            n_shards=1,
            n_replicas=1,
            max_batch=8,
            initial_backends=1,
            autoscaler=AutoscalerConfig(
                min_backends=1,
                max_backends=3,
                window_s=day_s / 20.0,
                scale_up_threshold=3.0,
                scale_down_threshold=0.5,
                evaluate_interval_s=day_s / 60.0,
                cooldown_s=day_s / 20.0,
                actuation_s=10.0,
            ),
        )
        report = run_production_day(config, isolation=False)
        day = report.result
        ups = [a for a in day.actions if a.kind == "scale_up"]
        assert ups, "sustained 2x overload must trip the burn scaler"
        assert ups[0].trigger_tenant == "hot"
        assert ups[0].trigger_burn > 3.0
        assert day.peak_backends > 1
        assert day.conserved

    def test_autoscale_off_pins_capacity(self):
        config = small_production_config()
        trace = generate_day(config)
        day = MultiTenantServer(config).run(trace, autoscale=False)
        assert day.actions == []
        assert day.peak_backends == config.initial_backends
        assert day.final_backends == config.initial_backends


class TestScorecardFragment:
    def test_scorecard_flattens_for_the_gate(self):
        from repro.serving.scorecard import flatten

        report = run_production_day(
            small_production_config(), isolation=True
        )
        card = dict(report.as_dict())
        card["seed"] = 3
        leaves = flatten(card)
        assert len(leaves) > 40
        assert all(
            isinstance(v, (int, float, str)) for v in leaves.values()
        )
