"""Tests for the fault-injection and reliability layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.reliability import percentile, run_reliability_trial
from repro.core.api import DeepStoreApiError, DeepStoreDevice
from repro.core.engine import DispatchPolicy, QueryEngine
from repro.core.event_query import EventQuerySimulator
from repro.core.scheduler import (
    degraded_topk,
    partition_feature_ranges,
    plan_degraded_scan,
)
from repro.core.topk import topk_select
from repro.faults import (
    ComponentFailure,
    FaultInjector,
    FaultPlan,
)
from repro.sim import Simulator
from repro.ssd import ChannelController, FlashChip, FlashTiming, SsdConfig
from repro.ssd.flash import PageReadRequest
from repro.ssd.geometry import PhysicalPageAddress
from repro.workloads import get_app


def addr(channel=0, chip=0, plane=0, block=0, page=0):
    return PhysicalPageAddress(channel, chip, plane, block, page)


class TestFaultPlan:
    def test_zero_plan_is_zero(self):
        assert FaultPlan.none().is_zero
        assert not FaultPlan(read_retry_rate=0.1).is_zero
        assert not FaultPlan.none().fail_accelerator(0).is_zero

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(read_retry_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crc_error_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(read_retry_max=0)

    def test_failure_kind_validation(self):
        with pytest.raises(ValueError):
            ComponentFailure(kind="gpu", index=0)
        with pytest.raises(ValueError):
            ComponentFailure(kind="accelerator")  # needs an index
        with pytest.raises(ValueError):
            ComponentFailure(kind="chip", channel=0)  # needs a chip too

    def test_builders_accumulate_failures(self):
        plan = FaultPlan.none().fail_accelerator(2).with_failure(
            ComponentFailure(kind="chip", channel=1, chip=3, at_s=1e-3)
        )
        assert len(plan.failures) == 2
        assert plan.injects_hard_failures
        assert "failure" in plan.describe()


class TestInjectorDeterminism:
    def _draws(self, seed, rate=0.2):
        inj = FaultInjector(plan=FaultPlan(read_retry_rate=rate,
                                           crc_error_rate=rate), seed=seed)
        pages = [addr(c, 0, 0, 0, p) for c in range(4) for p in range(64)]
        return (
            [inj.page_read_retries(a) for a in pages],
            [inj.transfer_crc_retries(a) for a in pages],
        )

    def test_same_seed_same_faults(self):
        assert self._draws(seed=11) == self._draws(seed=11)

    def test_different_seed_different_faults(self):
        assert self._draws(seed=11) != self._draws(seed=12)

    def test_epoch_redraws_the_pattern(self):
        inj = FaultInjector(plan=FaultPlan(read_retry_rate=0.3), seed=5)
        pages = [addr(page=p) for p in range(128)]
        first = [inj.page_read_retries(a) for a in pages]
        inj.begin_epoch(1)
        second = [inj.page_read_retries(a) for a in pages]
        assert first != second
        inj.begin_epoch(0)
        assert [inj.page_read_retries(a) for a in pages] == first

    def test_fault_sites_nest_as_rate_grows(self):
        # the monotone-curve guarantee: every site faulting at a low
        # rate also faults, with the same depth, at any higher rate
        pages = [addr(0, 0, 0, b, p) for b in range(8) for p in range(32)]
        low = FaultInjector(plan=FaultPlan(read_retry_rate=0.05), seed=3)
        high = FaultInjector(plan=FaultPlan(read_retry_rate=0.30), seed=3)
        low_draws = {a: low.page_read_retries(a) for a in pages}
        high_draws = {a: high.page_read_retries(a) for a in pages}
        faulting_low = {a for a, d in low_draws.items() if d}
        faulting_high = {a for a, d in high_draws.items() if d}
        assert faulting_low <= faulting_high
        assert len(faulting_high) > len(faulting_low)
        for a in faulting_low:
            assert low_draws[a] == high_draws[a]

    def test_counters_tally(self):
        inj = FaultInjector(plan=FaultPlan(read_retry_rate=1.0,
                                           read_retry_max=2), seed=0)
        total = sum(inj.page_read_retries(addr(page=p)) for p in range(50))
        assert inj.counts.page_reads == 50
        assert inj.counts.pages_with_retry == 50
        assert inj.counts.retry_passes == total

    def test_scheduled_failures_respect_time(self):
        plan = FaultPlan.none().fail_accelerator(4, at_s=1e-3).with_failure(
            ComponentFailure(kind="chip", channel=0, chip=1, at_s=2e-3)
        )
        inj = FaultInjector(plan=plan, seed=0)
        assert not inj.chip_dead(0, 1, now=1e-3)
        assert inj.chip_dead(0, 1, now=2e-3)
        assert inj.plane_dead(0, 1, 0, now=3e-3)  # dead chip kills planes
        assert not inj.accelerator_dead(4, now=0.0)
        assert inj.accelerator_dead(4, now=1e-3)


class TestFlashFaultHooks:
    def test_read_retry_stretches_plane_occupancy(self):
        timing = FlashTiming()
        clean_sim, faulty_sim = Simulator(), Simulator()
        clean = FlashChip(clean_sim, timing, planes=2)
        inj = FaultInjector(
            plan=FaultPlan(read_retry_rate=1.0, read_retry_max=1), seed=0
        )
        faulty = FlashChip(faulty_sim, timing, planes=2, injector=inj)
        done = {}
        clean.read(PageReadRequest(addr(), lambda r: done.update(c=clean_sim.now)))
        faulty.read(PageReadRequest(addr(), lambda r: done.update(f=faulty_sim.now)))
        clean_sim.run()
        faulty_sim.run()
        # rate 1.0, max 1 => exactly one extra array pass
        assert done["f"] == pytest.approx(done["c"] + timing.array_read_latency_s)
        assert faulty.retry_passes == 1

    def test_dead_plane_fails_the_read(self):
        plan = FaultPlan.none().with_failure(
            ComponentFailure(kind="chip", channel=0, chip=0)
        )
        inj = FaultInjector(plan=plan, seed=0)
        sim = Simulator()
        chip = FlashChip(sim, FlashTiming(), planes=2, injector=inj)
        outcome = []
        chip.read(
            PageReadRequest(
                addr(),
                lambda r: outcome.append("ok"),
                on_failed=lambda r: outcome.append("failed"),
            )
        )
        sim.run()
        assert outcome == ["failed"]
        assert chip.reads_failed == 1
        assert inj.counts.failed_reads == 1

    def test_crc_retransfer_inflates_bus_time(self):
        config = SsdConfig()
        results = {}
        for label, rate in (("clean", 0.0), ("noisy", 1.0)):
            sim = Simulator()
            inj = FaultInjector(
                plan=FaultPlan(crc_error_rate=rate, crc_retry_max=1), seed=0
            )
            ctl = ChannelController(
                sim, config.geometry, config.timing, 0, injector=inj
            )
            ctl.read_page(addr(), lambda a: None)
            sim.run()
            results[label] = sim.now
        extra = config.timing.transfer_seconds(
            config.geometry.page_bytes
        ) + config.timing.command_overhead_s
        assert results["noisy"] == pytest.approx(results["clean"] + extra)


class TestDispatchPolicy:
    def test_backoff_ladder(self):
        policy = DispatchPolicy(timeout_seconds=100e-6, max_retries=3,
                                backoff=2.0)
        assert policy.attempts == 4
        assert policy.attempt_timeout_seconds(0) == pytest.approx(100e-6)
        assert policy.attempt_timeout_seconds(3) == pytest.approx(800e-6)
        assert policy.give_up_seconds() == pytest.approx(1500e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            DispatchPolicy(timeout_seconds=0)
        with pytest.raises(ValueError):
            DispatchPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            DispatchPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            DispatchPolicy().attempt_timeout_seconds(-1)


class TestEngineRobustness:
    def test_merge_seconds_rejects_nonpositive_accels(self, ssd_config):
        engine = QueryEngine(ssd_config)
        with pytest.raises(ValueError):
            engine.merge_seconds(0, 10)
        with pytest.raises(ValueError):
            engine.merge_seconds(-3, 10)

    def test_degraded_dispatch_adds_timeout_ladders(self, ssd_config):
        engine = QueryEngine(ssd_config)
        policy = DispatchPolicy()
        healthy = engine.dispatch_seconds(30)
        degraded = engine.degraded_dispatch_seconds(32, 2, policy)
        assert degraded == pytest.approx(
            healthy + 2 * policy.give_up_seconds()
        )
        assert engine.degraded_dispatch_seconds(32, 0) == pytest.approx(
            engine.dispatch_seconds(32)
        )

    def test_degraded_dispatch_validation(self, ssd_config):
        engine = QueryEngine(ssd_config)
        with pytest.raises(ValueError):
            engine.degraded_dispatch_seconds(4, 4)  # nobody left
        with pytest.raises(ValueError):
            engine.degraded_dispatch_seconds(4, -1)


class TestDegradedScanPlan:
    def test_partition_covers_exactly(self):
        ranges = partition_feature_ranges(1003, 7)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 1003
        for (a, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c
        sizes = [b - a for a, b in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_plan_adopts_failed_stripes(self):
        plan = plan_degraded_scan(1000, 8, failed=[2, 5])
        assert plan.survivors == [0, 1, 3, 4, 6, 7]
        covered = sorted(
            r for ranges in plan.assignments.values() for r in ranges
        )
        assert covered == partition_feature_ranges(1000, 8)
        assert plan.load_factor > 1.0

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            plan_degraded_scan(100, 4, failed=[4])
        with pytest.raises(ValueError):
            plan_degraded_scan(100, 4, failed=[0, 1, 2, 3])
        assert plan_degraded_scan(100, 4, failed=[]).load_factor == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        n_features=st.integers(min_value=1, max_value=400),
        n_accels=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_degraded_topk_identical_to_healthy(
        self, n_features, n_accels, seed, data
    ):
        # failing any proper subset of accelerators must not change the
        # answer: remapped ranges cover the database exactly once
        failed = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=n_accels - 1),
                max_size=n_accels - 1,
            )
        )
        rng = np.random.default_rng(seed)
        # integer scores force plenty of ties through the tie-breaker
        scores = rng.integers(0, 5, size=n_features).astype(np.float32)
        plan = plan_degraded_scan(n_features, n_accels, failed)
        k = data.draw(st.integers(min_value=1, max_value=20))
        healthy = topk_select(list(zip(scores.tolist(), range(n_features))), k)
        assert degraded_topk(scores, plan, k) == healthy


class TestEventQueryFaults:
    @pytest.fixture(scope="class")
    def small_meta(self):
        from repro.ssd import Ssd

        app = get_app("tir")
        return app, Ssd().ftl.create_database(app.feature_bytes, 4000)

    def test_zero_plan_bit_identical(self, small_meta):
        app, meta = small_meta
        sim = EventQuerySimulator()
        healthy = sim.run(app, meta)
        with_none = sim.run(
            app, meta, injector=FaultInjector(plan=FaultPlan.none(), seed=0)
        )
        assert with_none.total_seconds == healthy.total_seconds
        assert with_none.availability == 1.0

    def test_retries_slow_the_scan(self, small_meta):
        app, meta = small_meta
        sim = EventQuerySimulator()
        healthy = sim.run(app, meta)
        inj = FaultInjector(plan=FaultPlan(read_retry_rate=0.2), seed=1)
        faulty = sim.run(app, meta, injector=inj)
        assert faulty.total_seconds > healthy.total_seconds
        assert faulty.availability == 1.0
        assert inj.counts.pages_with_retry > 0

    def test_accel_failure_remaps_and_degrades(self, small_meta):
        app, meta = small_meta
        sim = EventQuerySimulator()
        healthy = sim.run(app, meta)
        inj = FaultInjector(plan=FaultPlan.none().fail_accelerator(3), seed=0)
        degraded = sim.run(app, meta, injector=inj)
        assert degraded.failed_channels == [3]
        assert degraded.remapped_pages > 0
        assert degraded.availability == 1.0
        assert degraded.total_seconds > healthy.total_seconds
        assert degraded.per_channel_seconds[3] == 0.0

    def test_all_accels_failed_raises(self, small_meta):
        app, meta = small_meta
        sim = EventQuerySimulator()
        inj = FaultInjector(plan=FaultPlan(accel_failure_rate=1.0), seed=0)
        with pytest.raises(RuntimeError):
            sim.run(app, meta, injector=inj)


class TestReliabilityReport:
    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == 5.0
        assert percentile(values, 100) == 5.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 0)

    def test_zero_plan_reports_unity(self, tir_app):
        from repro.ssd import Ssd

        meta = Ssd().ftl.create_database(tir_app.feature_bytes, 4000)
        report = run_reliability_trial(
            tir_app, meta, FaultPlan.none(), queries=3
        )
        assert report.slowdown == 1.0
        assert report.p99_inflation == 1.0
        assert report.availability == 1.0
        assert report.counters == {}

    def test_trial_is_deterministic(self, tir_app):
        from repro.ssd import Ssd

        meta = Ssd().ftl.create_database(tir_app.feature_bytes, 4000)
        plan = FaultPlan(read_retry_rate=0.1, crc_error_rate=0.02)
        a = run_reliability_trial(tir_app, meta, plan, queries=2, seed=9)
        b = run_reliability_trial(tir_app, meta, plan, queries=2, seed=9)
        assert a.to_json() == b.to_json()
        assert a.slowdown > 1.0
        assert "p50" in a.render()

    def test_trial_validation(self, tir_app):
        from repro.ssd import Ssd

        meta = Ssd().ftl.create_database(tir_app.feature_bytes, 1000)
        with pytest.raises(ValueError):
            run_reliability_trial(tir_app, meta, FaultPlan.none(), queries=0)


class TestDeviceDegradedQueries:
    def test_failed_accel_keeps_topk_raises_latency(self, rng):
        device = DeepStoreDevice()
        app = get_app("tir")
        features = rng.normal(0, 1, (2048, 512)).astype(np.float32)
        db = device.write_db(features)
        from repro.nn import graph_to_bytes

        model = device.load_model(graph_to_bytes(app.build_scn(seed=1)))
        qfv = rng.normal(0, 1, 512).astype(np.float32)
        healthy = device.get_results(device.query(qfv, 10, model, db))
        device.fail_accelerator(7)
        degraded = device.get_results(device.query(qfv, 10, model, db))
        assert degraded.feature_ids.tolist() == healthy.feature_ids.tolist()
        assert degraded.seconds > healthy.seconds

    def test_all_accels_failed_is_an_error(self, rng):
        device = DeepStoreDevice()
        app = get_app("tir")
        db = device.write_db(rng.normal(0, 1, (256, 512)).astype(np.float32))
        from repro.nn import graph_to_bytes

        model = device.load_model(graph_to_bytes(app.build_scn(seed=1)))
        channels = device.ssd.config.geometry.channels
        for i in range(channels):
            device.fail_accelerator(i)
        with pytest.raises(DeepStoreApiError):
            device.query(rng.normal(0, 1, 512).astype(np.float32), 5, model, db)

    def test_fail_accelerator_validation(self):
        device = DeepStoreDevice()
        with pytest.raises(DeepStoreApiError):
            device.fail_accelerator(-1)


class TestFaultsCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["faults", "--retry-rate", "0.1"])
        assert args.retry_rate == 0.1
        assert args.app == "tir"
        assert args.json is False

    def test_faults_command_runs(self, capsys):
        from repro.cli import main

        code = main([
            "faults", "--features", "2000", "--queries", "2",
            "--retry-rate", "0.05", "--fail-accels", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Reliability report" in out
        assert "failed accels   [2]" in out

    def test_faults_command_json(self, capsys):
        import json

        from repro.cli import main

        code = main([
            "faults", "--features", "2000", "--queries", "1",
            "--crc-rate", "0.1", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slowdown"] >= 1.0
        assert payload["queries"] == 1


class TestProgramFaults:
    """Write-path (program-verify) faults for the ingest subsystem."""

    def test_plan_validation_and_description(self):
        with pytest.raises(ValueError):
            FaultPlan(program_fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(program_retry_max=0)
        plan = FaultPlan(program_fail_rate=0.2, program_retry_max=2)
        assert not plan.is_zero
        assert "program-fail" in plan.describe()

    def test_zero_rate_counts_programs_but_never_retries(self):
        inj = FaultInjector(plan=FaultPlan(read_retry_rate=0.5), seed=0)
        for page in range(32):
            assert inj.page_program_retries(addr(page=page)) == 0
        assert inj.counts.page_programs == 32
        assert inj.counts.program_retries == 0
        assert inj.counts.programs_with_retry == 0

    def test_retries_are_deterministic_and_bounded(self):
        plan = FaultPlan(program_fail_rate=0.5, program_retry_max=3)
        a = FaultInjector(plan=plan, seed=11)
        b = FaultInjector(plan=plan, seed=11)
        sites = [addr(block=i % 4, page=i) for i in range(64)]
        draws = [a.page_program_retries(s) for s in sites]
        assert draws == [b.page_program_retries(s) for s in sites]
        assert any(draws)  # rate 0.5 over 64 sites must fire somewhere
        assert all(0 <= d <= 3 for d in draws)
        assert a.counts.programs_with_retry == sum(1 for d in draws if d)
        assert a.counts.program_retries == sum(draws)

    def test_program_faults_leave_read_draws_untouched(self):
        # separate hash domains: arming write faults must not reshuffle
        # the read-retry pattern an experiment already depends on
        reads_only = FaultInjector(plan=FaultPlan(read_retry_rate=0.3), seed=5)
        both = FaultInjector(
            plan=FaultPlan(read_retry_rate=0.3, program_fail_rate=0.9), seed=5
        )
        sites = [addr(block=i // 8, page=i % 8) for i in range(48)]
        assert [reads_only.page_read_retries(s) for s in sites] == [
            both.page_read_retries(s) for s in sites
        ]

    def test_writepath_charges_program_retries(self, ssd):
        from repro.ingest import IngestWritePath
        from repro.ssd import Ssd

        app = get_app("textqa")
        inj = FaultInjector(
            plan=FaultPlan(program_fail_rate=1.0, program_retry_max=2), seed=0
        )
        faulty = IngestWritePath(
            ssd, app.feature_bytes, blocks=8, pages_per_block=16, injector=inj
        )
        clean = IngestWritePath(
            Ssd(), app.feature_bytes, blocks=8, pages_per_block=16
        )
        slow = faulty.append(range(40))
        fast = clean.append(range(40))
        assert inj.counts.page_programs > 0
        assert inj.counts.program_retries > 0
        # every program drew at least one extra pass: strictly slower
        assert slow.host_seconds > fast.host_seconds
        assert slow.pages_written == fast.pages_written

    def test_enable_ingest_attaches_injector_after_seeding(self, rng):
        from repro.ingest import LifecycleDevice

        device = LifecycleDevice()
        db = device.write_db(rng.normal(0, 1, (64, 6)).astype(np.float32))
        inj = FaultInjector(plan=FaultPlan(program_fail_rate=1.0), seed=0)
        device.enable_ingest(
            db, region_blocks=8, region_pages_per_block=16, injector=inj
        )
        # seeding the base rows must not count as faulted mutation traffic
        assert inj.counts.page_programs == 0
        device.insert_db(db, np.ones((3, 6), dtype=np.float32))
        assert inj.counts.page_programs > 0
        assert inj.counts.program_retries > 0
