"""Tests for host-I/O interference and multi-query scan sharing."""

import pytest

from repro.core import DeepStoreSystem
from repro.core.scheduler import MultiQueryScheduler
from repro.ssd.host_io import HostIoWorkload, InterferenceModel
from repro.workloads import get_app

from tests.conftest import make_db


class TestInterferenceModel:
    def test_preempt_keeps_query_speed(self):
        model = InterferenceModel()
        result = model.evaluate(HostIoWorkload(0.5), "preempt")
        assert result.scan_slowdown == 1.0
        assert result.host_throughput_fraction == 0.0

    def test_share_slows_io_bound_scans(self):
        model = InterferenceModel()
        result = model.evaluate(HostIoWorkload(0.5), "share", scan_io_fraction=1.0)
        assert result.scan_slowdown == pytest.approx(2.0)
        assert result.host_throughput_fraction > 0.9

    def test_compute_bound_scans_hide_interference(self):
        model = InterferenceModel()
        io_bound = model.evaluate(HostIoWorkload(0.4), "share", scan_io_fraction=1.0)
        compute_bound = model.evaluate(
            HostIoWorkload(0.4), "share", scan_io_fraction=0.2
        )
        assert compute_bound.scan_slowdown < io_bound.scan_slowdown

    def test_host_priority_worst_for_queries(self):
        model = InterferenceModel()
        share = model.evaluate(HostIoWorkload(0.7), "share")
        host_first = model.evaluate(HostIoWorkload(0.7), "host-priority")
        assert host_first.scan_slowdown > share.scan_slowdown

    def test_zero_load_no_effect(self):
        model = InterferenceModel()
        for policy in ("preempt", "share", "host-priority"):
            assert model.evaluate(HostIoWorkload(0.0), policy).scan_slowdown == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HostIoWorkload(1.5)
        model = InterferenceModel()
        with pytest.raises(ValueError):
            model.evaluate(HostIoWorkload(0.5), "magic")
        with pytest.raises(ValueError):
            model.evaluate(HostIoWorkload(0.5), "share", scan_io_fraction=2.0)


class TestMultiQueryScheduler:
    def test_single_query_matches_system(self, ssd):
        app = get_app("textqa")
        meta = make_db(ssd, app.feature_bytes, gigabytes=1.0)
        scheduler = MultiQueryScheduler()
        report = scheduler.shared_scan(app, meta, 1)
        system_latency = DeepStoreSystem.at_level("channel").query_latency(app, meta)
        assert report.scan_seconds == pytest.approx(
            system_latency.total_seconds, rel=0.15
        )

    def test_stream_bound_scans_share_for_free(self, ssd):
        # ReId's bottleneck is the per-feature weight broadcast, which a
        # second query consumes at no extra cost: co-scheduled queries
        # ride the same stream until compute catches up
        app = get_app("reid")
        meta = make_db(ssd, app.feature_bytes, gigabytes=1.0)
        scheduler = MultiQueryScheduler()
        four = scheduler.shared_scan(app, meta, 4)
        assert four.scan_seconds < 1.1 * four.single_query_seconds
        assert four.batch_speedup > 3.0

    def test_compute_bound_scans_do_not(self, ssd):
        # MIR at the channel level is compute-bound: each extra query
        # stretches the scan almost proportionally
        app = get_app("mir")
        meta = make_db(ssd, app.feature_bytes, gigabytes=1.0)
        scheduler = MultiQueryScheduler()
        four = scheduler.shared_scan(app, meta, 4)
        assert four.batch_speedup < 2.0

    def test_throughput_saturates(self, ssd):
        app = get_app("textqa")
        meta = make_db(ssd, app.feature_bytes, gigabytes=1.0)
        scheduler = MultiQueryScheduler()
        reports = [
            scheduler.shared_scan(app, meta, n) for n in (1, 2, 4, 16, 64, 256)
        ]
        qps = [r.n_queries / r.scan_seconds for r in reports]
        assert qps == sorted(qps)  # monotone
        # beyond the compute crossover the marginal gain collapses
        assert qps[-1] / qps[-2] < 2.0

    def test_free_concurrency_ordering(self, ssd):
        scheduler = MultiQueryScheduler()
        free = {}
        for name in ("mir", "reid"):
            app = get_app(name)
            meta = make_db(ssd, app.feature_bytes, gigabytes=1.0)
            free[name] = scheduler.free_concurrency(app, meta)
        # stream-bound ReId hands out far more free concurrency than
        # compute-bound MIR (whose single query already fills the array)
        assert free["reid"] > free["mir"]
        assert free["reid"] >= 4
        assert free["mir"] <= 2

    def test_validation(self, ssd):
        app = get_app("tir")
        meta = make_db(ssd, app.feature_bytes, gigabytes=0.5)
        scheduler = MultiQueryScheduler()
        with pytest.raises(ValueError):
            scheduler.shared_scan(app, meta, 0)
        with pytest.raises(ValueError):
            scheduler.free_concurrency(app, meta, tolerance=0.5)
