"""Tests for the chaos subsystem: schedules, harness, and parity.

Three load-bearing claims:

* **schedule determinism** — the same ``(seed, knobs)`` always
  generates the same production day, event for event;
* **fault-domain byte-stability** — crash-time and retry-jitter draws
  live in their own hash domains (9–10), so no chaos draw collides
  with a read-retry / CRC / program-fail draw (domains 1–8);
* **zero-chaos parity** — with chaos disabled the recovery subsystem
  does not perturb any existing behaviour (the perf gate proves this).
"""

import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosError,
    ChaosEvent,
    ChaosSchedule,
    run_cluster_chaos,
    run_durability_chaos,
)


class TestScheduleGeneration:
    def test_same_seed_same_day(self):
        kwargs = dict(
            n_shards=4, n_replicas=2, crashes=3, kills=4, bursts=2,
            outage_s=0.1, correlated=2,
        )
        a = ChaosSchedule.generate(11, 1.0, **kwargs)
        b = ChaosSchedule.generate(11, 1.0, **kwargs)
        assert a.events == b.events
        c = ChaosSchedule.generate(12, 1.0, **kwargs)
        assert a.events != c.events

    def test_events_are_time_ordered_and_validated(self):
        schedule = ChaosSchedule.generate(
            3, 2.0, n_shards=2, n_replicas=2, crashes=2, kills=3,
            outage_s=0.2, bursts=2,
        )
        times = [e.at_s for e in schedule.events]
        assert times == sorted(times)
        counts = schedule.counts()
        assert counts["crash"] == 2
        assert counts["burst"] == 2
        # every kill with a positive outage has a matching restart
        assert counts["restart"] == counts["kill"]
        assert "kill" in schedule.describe()

    def test_correlated_kills_share_an_instant(self):
        schedule = ChaosSchedule.generate(
            5, 1.0, n_shards=6, n_replicas=2, kills=2, correlated=3
        )
        kills = schedule.of_kind("kill")
        instants = {e.at_s for e in kills}
        assert len(instants) == 2  # two storms, each at one drawn time
        assert len(kills) > 2  # each storm took down several replicas

    def test_event_validation(self):
        with pytest.raises(ChaosError):
            ChaosEvent(at_s=-1.0, kind="crash")
        with pytest.raises(ChaosError):
            ChaosEvent(at_s=0.0, kind="meteor")
        with pytest.raises(ChaosError):
            ChaosEvent(at_s=0.0, kind="kill")  # no target
        with pytest.raises(ChaosError):
            ChaosEvent(at_s=0.0, kind="burst", rows=0)
        with pytest.raises(ChaosError):
            ChaosSchedule.generate(1, 0.0)
        with pytest.raises(ChaosError):
            ChaosSchedule.generate(1, 1.0, correlated=0)

    def test_due_window_is_half_open(self):
        schedule = ChaosSchedule(
            events=(
                ChaosEvent(at_s=0.1, kind="crash"),
                ChaosEvent(at_s=0.2, kind="crash"),
                ChaosEvent(at_s=0.3, kind="crash"),
            )
        )
        due = schedule.due(0.1, 0.3)
        assert [e.at_s for e in due] == [0.2, 0.3]


class TestFaultDomainByteStability:
    """Satellite 2: chaos draws cannot reshuffle fault draws."""

    def test_crash_and_jitter_domains_are_disjoint_from_fault_domains(self):
        from repro.faults import crash_time_unit, retry_jitter_unit
        from repro.faults.injector import _unit

        # same key, different domains: different draws
        for key in ((0, 1), (3, 4), (17, 2)):
            draws = {
                retry_jitter_unit(0, *key),
                crash_time_unit(0, *key),
                *(_unit(0, d, *key) for d in range(1, 9)),
            }
            assert len(draws) == 10  # no domain collides with another


class TestDurabilityHarness:
    def test_default_day_survives_with_bit_equal_recoveries(self):
        report = run_durability_chaos(ChaosConfig(seed=3))
        assert report.crashes and report.all_bit_equal
        assert report.durability == 1.0
        assert report.mutations_acked > 0
        assert report.checkpoints_taken > 0
        assert all(c.mttr_s > 0 for c in report.crashes)
        assert 0.0 < report.delta_skip_recall <= 1.0
        payload = report.to_dict()
        assert payload["bit_equal"] == 1
        assert payload["wal_records"] >= report.mutations_acked

    def test_deterministic_given_seed(self):
        a = run_durability_chaos(ChaosConfig(seed=5)).to_dict()
        b = run_durability_chaos(ChaosConfig(seed=5)).to_dict()
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ChaosError):
            ChaosConfig(duration_s=0.0)
        with pytest.raises(ChaosError):
            ChaosConfig(mutations=0)


class TestClusterChaosHarness:
    def test_default_day_metrics(self):
        report = run_cluster_chaos(ChaosConfig(seed=3))
        assert report.queries == 24
        assert report.served + report.shed + report.failed == report.queries
        assert 0.0 < report.availability <= 1.0
        assert 0.0 < report.recall_mean <= 1.0
        assert report.outages  # kills healed and were priced
        assert all(o.mttr_s > 0 for o in report.outages)
        payload = report.to_dict()
        assert payload["availability"] == report.availability

    def test_deterministic_given_seed(self):
        a = run_cluster_chaos(ChaosConfig(seed=5)).to_dict()
        b = run_cluster_chaos(ChaosConfig(seed=5)).to_dict()
        assert a == b

    def test_quiet_day_is_fully_available(self):
        config = ChaosConfig(seed=1, kills=0, bursts=0, crashes=0, queries=6)
        report = run_cluster_chaos(config)
        assert report.availability == 1.0
        assert report.recall_mean == 1.0
        assert report.partial == 0
        assert report.outages == []
        assert report.breaker_transitions == 0
        assert report.max_brownout_level == 0
