"""End-to-end server tests: determinism, conservation, cache, faults."""

import dataclasses
import os

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.serving import (
    QueryServer,
    ServingConfig,
    poisson_arrivals,
    sweep_offered_load,
)
from repro.sim import forkmap
from repro.workloads import QueryStream

FEATURES = 50_000   # small database: fast scans, fast tests


def small_config(**kw):
    kw.setdefault("app", "tir")
    kw.setdefault("features", FEATURES)
    kw.setdefault("queue_bound", 16)
    return ServingConfig(**kw)


def run_at(config, fraction, n=80, seed=11, stream=None):
    server = QueryServer(config)
    qps = server.saturation_qps() * fraction
    return server.run(
        poisson_arrivals(n, qps, seed=seed, stream=stream,
                         compat=config.app)
    )


class TestDeterminism:
    def test_bit_identical_runs(self):
        a = run_at(small_config(), 1.2)
        b = run_at(small_config(), 1.2)
        assert a.as_dict() == b.as_dict()

    def test_bit_identical_sweep(self):
        kw = dict(n_queries=60, seed=3,
                  load_fractions=(0.5, 1.0, 1.5))
        a = sweep_offered_load(small_config(), **kw)
        b = sweep_offered_load(small_config(), **kw)
        assert a.as_dict() == b.as_dict()

    @pytest.mark.skipif(not forkmap.available(), reason="no os.fork")
    def test_forked_sweep_equals_sequential(self, monkeypatch):
        """Three forked workers return the sequential points exactly."""
        stream = QueryStream(dim=32, n_intents=10, distribution="zipf",
                             alpha=0.9, paraphrase_noise=0.05, seed=2)
        kw = dict(n_queries=60, seed=3, stream=stream,
                  load_fractions=(0.5, 1.0, 1.5, 2.0))
        config = small_config(cache_entries=32)
        forks = []
        real_fork_map = forkmap.fork_map

        def spy(fn, n, processes=None):
            forks.append(processes)
            return real_fork_map(fn, n, processes)

        monkeypatch.setattr(forkmap, "fork_map", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        sequential = sweep_offered_load(config, **kw)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        forked = sweep_offered_load(config, **kw)
        assert forks == [3]
        assert len(forked.points) == len(sequential.points) == 4
        for got, want in zip(forked.points, sequential.points):
            for f in dataclasses.fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestConservation:
    @pytest.mark.parametrize("policy,deadline", [
        ("reject", None),
        ("drop-oldest", None),
        ("deadline", 0.5),
    ])
    def test_every_arrival_accounted(self, policy, deadline):
        config = small_config(policy=policy, deadline_s=deadline)
        for fraction in (0.5, 1.5, 3.0):
            result = run_at(config, fraction)
            assert result.conserved
            assert result.arrived == 80

    def test_underload_sheds_nothing(self):
        result = run_at(small_config(), 0.3)
        assert result.shed == 0
        assert result.goodput_fraction == 1.0

    def test_overload_sheds(self):
        result = run_at(small_config(queue_bound=4), 3.0)
        assert result.shed > 0
        assert result.conserved


class TestCurveShape:
    def test_monotone_throughput_and_tail(self):
        curve = sweep_offered_load(
            small_config(), n_queries=80, seed=11,
            load_fractions=(0.25, 0.75, 1.25, 2.0),
        )
        assert curve.achieved_monotone(slack=curve.saturation_qps * 1e-6)
        assert curve.p99_monotone(slack=1e-9)

    def test_knee_is_past_underload(self):
        curve = sweep_offered_load(
            small_config(), n_queries=80, seed=11,
            load_fractions=(0.25, 0.5, 2.0, 3.0),
        )
        assert curve.knee_index() >= 2

    def test_batching_kicks_in_under_overload(self):
        under = run_at(small_config(max_batch=8), 0.25)
        over = run_at(small_config(max_batch=8), 3.0)
        assert over.mean_batch > under.mean_batch
        assert over.mean_batch > 1.0


class TestQueryCache:
    def _stream(self):
        return QueryStream(dim=32, n_intents=10, distribution="zipf",
                           alpha=0.9, paraphrase_noise=0.05, seed=2)

    def test_hits_bypass_queue(self):
        config = small_config(cache_entries=128, queue_bound=4)
        result = run_at(config, 3.0, n=120, stream=self._stream())
        assert result.cache_hits > 0
        assert result.hit_rate > 0.1
        # hits complete without admission: completed exceeds what the
        # scan path alone could have served
        assert result.completed == result.cache_hits + (
            result.admitted - (result.evicted + result.expired)
        )

    def test_cache_raises_goodput_under_overload(self):
        plain = run_at(small_config(queue_bound=4), 3.0, n=120,
                       stream=self._stream())
        cached = run_at(small_config(queue_bound=4, cache_entries=128),
                        3.0, n=120, stream=self._stream())
        assert cached.goodput_fraction > plain.goodput_fraction


class TestDegradedMode:
    def test_failed_accels_lower_saturation(self):
        healthy = QueryServer(small_config()).saturation_qps()
        degraded = QueryServer(
            small_config(failed_accels=(0, 1))
        ).saturation_qps()
        assert degraded < healthy

    def test_degraded_curve_still_conserves(self):
        curve = sweep_offered_load(
            small_config(failed_accels=(0,)), n_queries=60, seed=5,
            load_fractions=(0.5, 1.5),
        )
        assert all(p.conserved for p in curve.points)


class TestDeadlinePolicy:
    def test_wait_bounded_by_deadline(self):
        deadline = 0.25
        config = small_config(policy="deadline", deadline_s=deadline,
                              queue_bound=64)
        result = run_at(config, 4.0, n=150)
        assert result.expired > 0
        # a served query waited at most the deadline; its latency is
        # bounded by deadline + the largest batch service time
        server = QueryServer(config)
        bound = deadline + server.cost.service_seconds(config.max_batch)
        assert result.max_latency_s <= bound + 1e-9


class TestObservability:
    def test_metrics_and_tracer_populated(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        config = small_config(queue_bound=4)
        server = QueryServer(config, metrics=metrics, tracer=tracer)
        qps = server.saturation_qps() * 3.0
        result = server.run(poisson_arrivals(100, qps, seed=11))

        snap = metrics.snapshot()
        assert snap["serving.arrived"] == 100
        assert snap["serving.completed"] == result.completed
        assert snap["serving.shed"] == result.shed
        assert snap["serving.latency_s"]["count"] == result.completed

        assert tracer.count("serving.queue") > 0   # depth instants
        assert tracer.count("serving.shed") == result.shed
        batches = list(tracer.spans_in("serving.batch"))
        assert sum(s.args["n"] for s in batches) == result.completed

    def test_runs_without_instruments(self):
        result = run_at(small_config(), 1.0)
        assert result.completed > 0


class TestValidation:
    def test_empty_arrivals_rejected(self):
        with pytest.raises(ValueError):
            QueryServer(small_config()).run([])

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(features=0)
        with pytest.raises(ValueError):
            ServingConfig(n_servers=0)
        with pytest.raises(ValueError):
            ServingConfig(cache_entries=-1)

    def test_multi_server_scales_throughput(self):
        one = QueryServer(small_config(n_servers=1)).saturation_qps()
        two = QueryServer(small_config(n_servers=2)).saturation_qps()
        assert two == pytest.approx(2 * one, rel=1e-9)
