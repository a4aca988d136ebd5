"""Differential parity: a degenerate cluster IS a single DeepStore SSD.

The cluster layer's anchor contract: a 1-shard, 1-replica cluster must
reproduce a standalone :class:`DeepStoreDevice` **bit-exactly** — same
feature ids, same scores (no tolerance), and the same end-to-end
seconds (``ClusterQueryResult.seconds == QueryResult.seconds_to_host``,
compared with ``==``, not approx).  Every hidden coordinator cost
(scatter charge, gather charge, straggler factor, canonicalization)
would break one of these assertions, so the suite pins them all to
zero/identity in the degenerate case — per accelerator placement
level, with and without the query cache, and for every placement
strategy (all of which must collapse to the identity layout at one
shard).
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, DeepStoreCluster
from repro.core.api import DeepStoreDevice

LEVELS = ("ssd", "channel", "chip")

N_FEATURES = 300
K = 7
SEED = 3


def _dataset(app, n=N_FEATURES, seed=SEED):
    rng = np.random.default_rng(seed)
    features = rng.normal(0, 1, (n, app.feature_floats)).astype(np.float32)
    queries = rng.normal(0, 1, (4, app.feature_floats)).astype(np.float32)
    return features, queries


def _single_device(app, features, level, qc_threshold=None):
    device = DeepStoreDevice(level=level, seed=SEED)
    db = device.write_db(features)
    model = device.load_graph(app.build_scn(seed=SEED))
    if qc_threshold is not None:
        device.set_qc(qc_threshold)
    return device, model, db


def _degenerate_cluster(app, features, level, placement="range",
                        qc_threshold=None):
    cluster = DeepStoreCluster(
        ClusterConfig(n_shards=1, n_replicas=1, placement=placement,
                      level=level, seed=SEED)
    )
    db = cluster.write_db(features)
    model = cluster.load_graph(app.build_scn(seed=SEED))
    if qc_threshold is not None:
        cluster.set_qc(qc_threshold)
    return cluster, model, db


@pytest.mark.parametrize("level", LEVELS)
class TestDegenerateParity:
    """1 shard x 1 replica == one device, at every accelerator level."""

    def test_ids_scores_and_seconds_bit_exact(self, tir_app, level):
        features, queries = _dataset(tir_app)
        device, d_model, d_db = _single_device(tir_app, features, level)
        cluster, c_model, c_db = _degenerate_cluster(tir_app, features, level)
        for qfv in queries:
            expected = device.get_results(
                device.query(qfv, k=K, model_id=d_model, db_id=d_db)
            )
            got = cluster.query(qfv, k=K, model_id=c_model, db_id=c_db)
            assert np.array_equal(got.feature_ids, expected.feature_ids)
            assert np.array_equal(got.scores, expected.scores)
            # bit-exact latency: == on floats is deliberate
            assert got.seconds == expected.seconds_to_host

    def test_coordinator_charges_vanish(self, tir_app, level):
        features, queries = _dataset(tir_app)
        cluster, model, db = _degenerate_cluster(tir_app, features, level)
        got = cluster.query(queries[0], k=K, model_id=model, db_id=db)
        assert got.scatter_seconds == 0.0
        assert got.gather_seconds == 0.0
        assert got.merge.comparisons == 0
        assert got.n_contacted == 1
        assert got.seconds == got.makespan_seconds

    def test_parity_with_query_cache(self, tir_app, level):
        features, queries = _dataset(tir_app)
        device, d_model, d_db = _single_device(
            tir_app, features, level, qc_threshold=0.2
        )
        cluster, c_model, c_db = _degenerate_cluster(
            tir_app, features, level, qc_threshold=0.2
        )
        # repeat each query so the second round can hit the cache; both
        # sides must hit (or miss) identically and stay bit-exact
        for qfv in list(queries[:2]) * 2:
            expected = device.get_results(
                device.query(qfv, k=K, model_id=d_model, db_id=d_db)
            )
            got = cluster.query(qfv, k=K, model_id=c_model, db_id=c_db)
            assert np.array_equal(got.feature_ids, expected.feature_ids)
            assert np.array_equal(got.scores, expected.scores)
            assert got.seconds == expected.seconds_to_host
            assert got.cache_hit == expected.cache_hit
        # the repeat pass genuinely exercised the cache on both sides
        assert expected.cache_hit

    @pytest.mark.parametrize("placement", ["range", "hash", "locality"])
    def test_every_placement_degenerates(self, tir_app, level, placement):
        features, queries = _dataset(tir_app)
        device, d_model, d_db = _single_device(tir_app, features, level)
        cluster, c_model, c_db = _degenerate_cluster(
            tir_app, features, level, placement=placement
        )
        expected = device.get_results(
            device.query(queries[0], k=K, model_id=d_model, db_id=d_db)
        )
        got = cluster.query(queries[0], k=K, model_id=c_model, db_id=c_db)
        assert np.array_equal(got.feature_ids, expected.feature_ids)
        assert np.array_equal(got.scores, expected.scores)
        assert got.seconds == expected.seconds_to_host


class TestShardedAgreement:
    """Sharded answers equal unsharded answers (ids + scores)."""

    @pytest.mark.parametrize("placement", ["range", "hash", "locality"])
    @pytest.mark.parametrize("shards", [2, 3, 8])
    def test_global_topk_matches_single_device(
        self, tir_app, placement, shards
    ):
        features, queries = _dataset(tir_app)
        device, d_model, d_db = _single_device(tir_app, features, "channel")
        cluster = DeepStoreCluster(
            ClusterConfig(n_shards=shards, placement=placement,
                          level="channel", seed=SEED)
        )
        c_db = cluster.write_db(features)
        c_model = cluster.load_graph(tir_app.build_scn(seed=SEED))
        for qfv in queries:
            expected = device.get_results(
                device.query(qfv, k=K, model_id=d_model, db_id=d_db)
            )
            got = cluster.query(qfv, k=K, model_id=c_model, db_id=c_db)
            # canonical tie-break makes even duplicate scores agree
            assert np.array_equal(got.feature_ids, expected.feature_ids)
            assert got.scores == pytest.approx(expected.scores, abs=1e-6)

    def test_replication_and_failover_never_change_answers(self, tir_app):
        features, queries = _dataset(tir_app)
        healthy = DeepStoreCluster(
            ClusterConfig(n_shards=4, n_replicas=2, level="channel",
                          seed=SEED)
        )
        h_db = healthy.write_db(features)
        h_model = healthy.load_graph(tir_app.build_scn(seed=SEED))
        wounded = DeepStoreCluster(
            ClusterConfig(n_shards=4, n_replicas=2, level="channel",
                          seed=SEED, fail_shards=(0, (2, 1)))
        )
        w_db = wounded.write_db(features)
        w_model = wounded.load_graph(tir_app.build_scn(seed=SEED))
        for qfv in queries:
            a = healthy.query(qfv, k=K, model_id=h_model, db_id=h_db)
            b = wounded.query(qfv, k=K, model_id=w_model, db_id=w_db)
            assert np.array_equal(a.feature_ids, b.feature_ids)
            assert np.array_equal(a.scores, b.scores)
            # ... but the dead replicas cost detection time
            assert b.failovers >= 1
            assert b.seconds > a.seconds
