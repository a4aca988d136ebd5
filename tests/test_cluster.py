"""Tests for the cluster config, coordinator, analytic model, serving
integration, and the cluster scorecard."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterBatchCostModel,
    ClusterConfig,
    ClusterError,
    ClusterModel,
    CoordinatorCosts,
    DeepStoreCluster,
    build_cluster_scorecard,
    cluster_metrics_snapshot,
    normalize_fail_shards,
)
from repro.obs import MetricsRegistry, TraceCollector
from repro.serving import QueryServer, ServingConfig
from repro.serving.batcher import BatchCostModel, BatchPolicy
from repro.ssd.ftl import DatabaseMetadata

N = 240
K = 5


def _cluster(app, **kw):
    kw.setdefault("n_shards", 3)
    kw.setdefault("level", "channel")
    cluster = DeepStoreCluster(ClusterConfig(**kw))
    rng = np.random.default_rng(0)
    features = rng.normal(0, 1, (N, app.feature_floats)).astype(np.float32)
    db = cluster.write_db(features)
    model = cluster.load_graph(app.build_scn(seed=0))
    qfv = rng.normal(0, 1, app.feature_floats).astype(np.float32)
    return cluster, model, db, qfv


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ClusterError):
            ClusterConfig(n_shards=0)
        with pytest.raises(ClusterError):
            ClusterConfig(n_replicas=0)
        with pytest.raises(ClusterError):
            ClusterConfig(placement="round-robin")
        with pytest.raises(ClusterError):
            ClusterConfig(hedge_fraction=0.0)
        with pytest.raises(ClusterError):
            ClusterConfig(straggler_spread=-1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hedge_fraction", float("nan")),
            ("hedge_fraction", float("inf")),
            ("straggler_spread", float("nan")),
            ("straggler_spread", float("inf")),
            ("level", "bogus"),
        ],
    )
    def test_rejects_non_finite_and_unknown_values(self, field, value):
        # caught at construction, naming the field — not later as a NaN
        # hedge deadline or a device-level DeepStoreApiError
        with pytest.raises(ClusterError, match=field):
            ClusterConfig(**{field: value})

    def test_normalize_fail_shards(self):
        assert normalize_fail_shards((3, (1, 1), 3), 4, 2) == ((1, 1), (3, 0))
        for bad in ((-1,), (4,), ((1, 2),), (1.5,), ((1,),)):
            with pytest.raises(ClusterError, match="fail_shards"):
                normalize_fail_shards(bad, 4, 2)

    def test_live_replicas_and_dead(self):
        cfg = ClusterConfig(n_shards=4, n_replicas=3, fail_shards=(0, (0, 2)))
        assert cfg.live_replicas(0) == (1,)
        assert cfg.live_replicas(1) == (0, 1, 2)
        assert cfg.fail_shards == ((0, 0), (0, 2))

    def test_replica_slowdown_deterministic_and_bounded(self):
        cfg = ClusterConfig(n_shards=2, n_replicas=2, straggler_spread=0.5,
                            seed=9)
        a = cfg.replica_slowdown(1, 0)
        assert a == cfg.replica_slowdown(1, 0)
        assert 1.0 <= a <= 1.5
        assert ClusterConfig().replica_slowdown(0, 0) == 1.0

    def test_describe_mentions_everything(self):
        text = ClusterConfig(
            n_shards=2, n_replicas=2, fail_shards=(1,),
            hedge_fraction=1.5, straggler_spread=0.5,
        ).describe()
        for needle in ("2 shard", "2 replica", "dead", "hedge", "straggler"):
            assert needle in text

    def test_coordinator_costs(self):
        costs = CoordinatorCosts()
        assert costs.scatter_seconds(1) == 0.0  # first shard rides free
        assert costs.gather_seconds(0) == 0.0
        assert costs.scatter_seconds(3) == pytest.approx(
            2 * costs.scatter_per_shard_seconds
        )
        with pytest.raises(ValueError):
            costs.scatter_seconds(0)
        with pytest.raises(ValueError):
            costs.gather_seconds(-1)
        with pytest.raises(ValueError):
            CoordinatorCosts(scatter_per_shard_seconds=-1.0)


class TestDeepStoreCluster:
    def test_query_is_deterministic(self, tir_app):
        a_cluster, a_model, a_db, qfv = _cluster(tir_app)
        b_cluster, b_model, b_db, _ = _cluster(tir_app)
        a = a_cluster.query(qfv, k=K, model_id=a_model, db_id=a_db)
        b = b_cluster.query(qfv, k=K, model_id=b_model, db_id=b_db)
        assert a.to_dict() == b.to_dict()

    def test_read_spread_rotates_primaries(self, tir_app):
        cluster, model, db, qfv = _cluster(tir_app, n_shards=2, n_replicas=2)
        first = cluster.query(qfv, k=K, model_id=model, db_id=db)
        second = cluster.query(qfv, k=K, model_id=model, db_id=db)
        # primary = (seq + shard) % replicas: consecutive queries land on
        # different replicas of the same shard
        for s1, s2 in zip(first.shards, second.shards):
            assert s1.replica != s2.replica
        # ... without changing the answer
        assert np.array_equal(first.feature_ids, second.feature_ids)

    def test_all_replicas_dead_yields_partial_not_raise(self, tir_app):
        # regression: an all-dead shard used to blow up the whole query;
        # it must now resolve as a structured per-shard unavailable leg
        # with an explicitly flagged partial top-K
        cluster, model, db, qfv = _cluster(
            tir_app, n_shards=2, n_replicas=2, fail_shards=((1, 0), (1, 1))
        )
        result = cluster.query(qfv, k=K, model_id=model, db_id=db)
        assert result.partial
        assert result.unavailable_shards == 1
        dead_leg = next(s for s in result.shards if s.shard == 1)
        assert dead_leg.unavailable and dead_leg.replica == -1
        # the dead shard still cost its detection ladders
        assert dead_leg.failovers == 2
        live_leg = next(s for s in result.shards if s.shard == 0)
        assert not live_leg.unavailable
        # answers cover the shard that answered, exactly
        healthy, hm, hdb, _ = _cluster(tir_app, n_shards=2, n_replicas=2)
        full = healthy.query(qfv, k=K, model_id=hm, db_id=hdb)
        live_owner_ids = set(
            int(i) for i in cluster.placement_of(db).owners[0]
        )
        assert all(int(i) in live_owner_ids for i in result.feature_ids)
        # the full top-K filtered to the live shard is a prefix of the
        # partial top-K (the partial answer is exact over what answered)
        expected_prefix = [
            int(i) for i in full.feature_ids if int(i) in live_owner_ids
        ]
        assert list(map(int, result.feature_ids))[: len(expected_prefix)] \
            == expected_prefix
        assert "unavailable_shards" in result.to_dict()

    def test_every_shard_dead_still_raises(self, tir_app):
        cluster, model, db, qfv = _cluster(
            tir_app, n_shards=2, n_replicas=1, fail_shards=(0, 1)
        )
        with pytest.raises(ClusterError):
            cluster.query(qfv, k=K, model_id=model, db_id=db)

    def test_unknown_ids_rejected(self, tir_app):
        cluster, model, db, qfv = _cluster(tir_app)
        with pytest.raises(ClusterError):
            cluster.query(qfv, k=K, model_id=model, db_id=db + 7)
        with pytest.raises(ClusterError):
            cluster.query(qfv, k=K, model_id=model + 7, db_id=db)
        with pytest.raises(ClusterError):
            cluster.query(qfv, k=0, model_id=model, db_id=db)
        with pytest.raises(ClusterError):
            cluster.write_db(np.zeros((0, 4), dtype=np.float32))
        with pytest.raises(ClusterError):
            cluster.placement_of(db + 7)

    def test_metrics_and_tracer_populated(self, tir_app):
        metrics = MetricsRegistry()
        dtrace = TraceCollector()
        cluster = DeepStoreCluster(ClusterConfig(n_shards=2), metrics=metrics)
        rng = np.random.default_rng(0)
        features = rng.normal(0, 1, (N, tir_app.feature_floats)).astype(
            np.float32
        )
        db = cluster.write_db(features)
        model = cluster.load_graph(tir_app.build_scn(seed=0))
        cluster.query(
            rng.normal(0, 1, tir_app.feature_floats).astype(np.float32),
            k=K, model_id=model, db_id=db, dtrace=dtrace,
        )
        snap = cluster_metrics_snapshot(metrics)
        assert snap["cluster.scatters"] == 1
        assert snap["cluster.shard0.queries"] == 1
        assert snap["cluster.shard1.queries"] == 1
        assert "cluster.query_seconds" in snap
        kinds = {s.kind for s in dtrace.spans}
        assert {"cluster.shard", "cluster.scatter", "cluster.gather"} <= kinds

    def test_fail_accelerator_scoped_to_one_shard(self, tir_app):
        degraded_one, m1, d1, qfv = _cluster(tir_app, n_shards=2)
        degraded_one.fail_accelerator(0, shard=1)
        healthy, m0, d0, _ = _cluster(tir_app, n_shards=2)
        a = healthy.query(qfv, k=K, model_id=m0, db_id=d0)
        b = degraded_one.query(qfv, k=K, model_id=m1, db_id=d1)
        assert np.array_equal(a.feature_ids, b.feature_ids)
        # only shard 1's leg pays the degraded-mode tax
        assert b.shards[0].seconds == a.shards[0].seconds
        assert b.shards[1].seconds > a.shards[1].seconds

    def test_to_dict_is_json_ready(self, tir_app):
        import json

        cluster, model, db, qfv = _cluster(tir_app)
        result = cluster.query(qfv, k=K, model_id=model, db_id=db)
        blob = json.dumps(result.to_dict(), sort_keys=True)
        round_tripped = json.loads(blob)
        assert round_tripped["n_contacted"] == 3
        assert len(round_tripped["feature_ids"]) == K
        assert len(round_tripped["shards"]) == 3


class TestClusterModel:
    def test_sharding_speeds_up_scan(self, tir_app):
        single = ClusterModel(ClusterConfig(n_shards=1)).estimate(
            tir_app, 400_000
        )
        sharded = ClusterModel(ClusterConfig(n_shards=8)).estimate(
            tir_app, 400_000
        )
        assert sharded.seconds < single.seconds
        assert sharded.speedup_vs_single > 4.0
        assert single.speedup_vs_single == pytest.approx(1.0)
        assert 0.0 < sharded.utilization <= 1.0

    def test_failover_costs_detection_not_correctness(self, tir_app):
        healthy = ClusterModel(
            ClusterConfig(n_shards=4, n_replicas=2)
        ).estimate(tir_app, 100_000)
        wounded = ClusterModel(
            ClusterConfig(n_shards=4, n_replicas=2, fail_shards=(0,))
        ).estimate(tir_app, 100_000)
        assert wounded.failovers == 1
        assert wounded.seconds > healthy.seconds

    def test_hedging_caps_stragglers(self, tir_app):
        straggled = ClusterModel(
            ClusterConfig(n_shards=4, n_replicas=2, seed=16,
                          straggler_spread=3.0)
        ).estimate(tir_app, 100_000)
        hedged = ClusterModel(
            ClusterConfig(n_shards=4, n_replicas=2, seed=16,
                          straggler_spread=3.0, hedge_fraction=1.25)
        ).estimate(tir_app, 100_000)
        assert hedged.hedges_launched > 0
        assert hedged.makespan_seconds <= straggled.makespan_seconds

    def test_validation(self, tir_app):
        model = ClusterModel()
        with pytest.raises(ClusterError):
            model.estimate(tir_app, 0)
        with pytest.raises(ClusterError):
            model.estimate(tir_app, 100, k=0)
        with pytest.raises(ClusterError):
            model.shard_seconds(tir_app, 0, 10)


class TestClusterServing:
    def test_serving_config_clustered_property(self):
        assert not ServingConfig().clustered
        assert ServingConfig(n_shards=4).clustered
        assert ServingConfig(n_replicas=2).clustered
        assert ServingConfig(fail_shards=(0,)).clustered
        with pytest.raises(ValueError):
            ServingConfig(n_shards=0)
        with pytest.raises(ValueError):
            ServingConfig(n_replicas=0)

    def test_one_shard_table_equals_device_table(self, tir_app):
        meta = DatabaseMetadata(
            db_id=0, feature_bytes=tir_app.feature_bytes,
            feature_count=100_000,
        )
        device = BatchCostModel(tir_app, meta)
        clustered = ClusterBatchCostModel(
            tir_app, meta, cluster=ClusterConfig(n_shards=1)
        )
        for n in (1, 4, clustered.max_batch):
            assert clustered.service_seconds(n) == device.service_seconds(n)
        assert clustered.best_batch() == device.best_batch()
        assert clustered.saturation_qps() == device.saturation_qps()

    def test_shard_barrier_prices_slowest_shard(self, tir_app):
        meta = DatabaseMetadata(
            db_id=0, feature_bytes=tir_app.feature_bytes,
            feature_count=100_000,
        )
        flat = ClusterBatchCostModel(
            tir_app, meta, cluster=ClusterConfig(n_shards=4)
        )
        straggly = ClusterBatchCostModel(
            tir_app, meta,
            cluster=ClusterConfig(n_shards=4, n_replicas=2,
                                  straggler_spread=2.0, seed=1),
        )
        assert straggly.service_seconds(4) > flat.service_seconds(4)
        assert straggly.saturation_qps() < flat.saturation_qps()

    def test_batch_size_validated(self, tir_app):
        meta = DatabaseMetadata(
            db_id=0, feature_bytes=tir_app.feature_bytes,
            feature_count=10_000,
        )
        table = ClusterBatchCostModel(
            tir_app, meta, cluster=ClusterConfig(n_shards=2),
            policy=BatchPolicy(max_batch=8),
        )
        with pytest.raises(ValueError):
            table.service_seconds(0)
        with pytest.raises(ValueError):
            table.service_seconds(9)
        with pytest.raises(ValueError):
            table.saturation_qps(0)

    def test_query_server_runs_over_sharded_backend(self):
        from repro.serving import poisson_arrivals

        sharded = ServingConfig(app="tir", features=50_000, n_shards=4)
        server = QueryServer(sharded)
        result = server.run(
            poisson_arrivals(40, server.saturation_qps() * 0.5,
                             seed=11, compat="tir")
        )
        assert result.conserved
        assert result.completed == 40
        # a 4-shard backend outruns the single-SSD one on the same data
        single = QueryServer(ServingConfig(app="tir", features=50_000))
        assert server.saturation_qps() > single.saturation_qps()


class TestClusterScorecard:
    @pytest.fixture(scope="class")
    def scorecard(self):
        return build_cluster_scorecard(n_features=200_000)

    def test_deterministic(self, scorecard):
        assert scorecard == build_cluster_scorecard(n_features=200_000)

    def test_scaling_block_shape(self, scorecard):
        shards = [row["shards"] for row in scorecard["scaling"]]
        assert shards == [1, 2, 4, 8]
        speedups = [row["speedup_vs_single"] for row in scorecard["scaling"]]
        assert speedups[0] == pytest.approx(1.0)
        assert speedups == sorted(speedups)  # monotone scaling
        assert scorecard["scaling"][0]["merge_comparisons"] == 0

    def test_failover_block(self, scorecard):
        block = scorecard["failover"]
        assert block["dead_replicas"] == 2
        assert block["failovers"] >= 1
        assert block["query_ms"] > block["healthy_query_ms"]
        assert block["slowdown"] > 1.0

    def test_hedged_block(self, scorecard):
        block = scorecard["hedged"]
        assert block["hedges_launched"] > 0
        assert block["hedge_wins"] >= 1
        assert block["metrics_hedges_launched"] == block["hedges_launched"]
        assert 0.0 < block["makespan_saved_fraction"] < 1.0
        assert block["hedged_query_ms"] < block["straggled_query_ms"]
