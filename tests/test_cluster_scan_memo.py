"""A cluster query scores each shard's rows once.

Every replica of a shard holds the same slice until something mutates
it, so the coordinator lets the eager primary and a hedge backup share
one :class:`~repro.core.api.ScanMemo`: the second replica reuses the
first one's ``(ids, scores)`` instead of re-running the SCN.  The
claims pinned here:

* a cache-missing read on a hedged 3x2 cluster scores exactly the
  dataset's rows — not the 5/3x a per-replica re-scan costs;
* sharing never changes an answer: every result field and every
  replica's query-cache contents equal a run whose memo always misses;
* a replica whose database diverged (epoch > 0) never takes another
  replica's scan.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import ClusterConfig, DeepStoreCluster
from repro.core.api import DeepStoreDevice, ScanMemo
from repro.workloads import get_app

N = 240
K = 5
#: cluster_read's shape: hedge at 0.3x healthy, stragglers, a dead replica
HEDGED = dict(
    n_shards=3, n_replicas=2, hedge_fraction=0.3, straggler_spread=0.5,
    fail_shards=((1, 0),), seed=3,
)


def _build(app, cache=True, **kw):
    cluster = DeepStoreCluster(ClusterConfig(**kw))
    rng = np.random.default_rng(kw.get("seed", 0))
    features = rng.normal(0, 1, (N, app.feature_floats)).astype(np.float32)
    db = cluster.write_db(features)
    model = cluster.load_graph(app.build_scn(seed=0))
    if cache:
        cluster.set_qc(0.5, capacity=4)
    queries = rng.normal(0, 1, (3, app.feature_floats)).astype(np.float32)
    return cluster, model, db, queries


def _never_shared():
    """Force every memo lookup to miss: each replica scans on its own."""
    return mock.patch.object(ScanMemo, "lookup", lambda self, key: None)


def _rows_scored(run):
    """Rows :meth:`DeepStoreDevice._score_features` saw during ``run()``."""
    seen = []
    original = DeepStoreDevice._score_features

    def spy(self, graph, qfv, features):
        seen.append(len(features))
        return original(self, graph, qfv, features)

    with mock.patch.object(DeepStoreDevice, "_score_features", spy):
        result = run()
    return sum(seen), result


def _cache_state(cluster):
    """Every replica's cache entries (in LRU order) and hit counters."""
    state = {}
    for key, device in sorted(cluster.devices.items()):
        cache = device.query_cache
        state[key] = (
            cache.hits,
            cache.misses,
            [
                (e.qfv.tobytes(), e.topk_scores.tobytes(),
                 e.topk_feature_ids.tobytes(), e.object_ids.tobytes(), e.tag)
                for e in cache._entries.values()
            ],
        )
    return state


class TestEachShardScoredOnce:
    def test_cache_missing_read_scores_the_dataset_once(self, tir_app):
        cluster, model, db, queries = _build(tir_app, **HEDGED)
        rows, result = _rows_scored(
            lambda: cluster.query(queries[0], k=K, model_id=model, db_id=db)
        )
        # both fully live shards hedge; the one with a dead replica has
        # no backup to hedge onto
        assert result.hedges_launched == 2
        assert not any(s.cache_hit for s in result.shards)
        assert rows == N

    def test_without_sharing_the_hedged_shards_score_twice(self, tir_app):
        # the same read with the memo disabled: each hedged shard is
        # scored by both of its replicas
        cluster, model, db, queries = _build(tir_app, **HEDGED)
        owners = cluster.placement_of(db).owners
        with _never_shared():
            rows, result = _rows_scored(
                lambda: cluster.query(
                    queries[0], k=K, model_id=model, db_id=db
                )
            )
        hedged_rows = sum(len(owners[s.shard]) for s in result.shards if s.hedged)
        assert rows == N + hedged_rows > N

    def test_memo_lives_for_one_query_only(self, tir_app):
        # a second, different query must scan again (no cross-query reuse)
        cluster, model, db, queries = _build(tir_app, cache=False, **HEDGED)
        first, _ = _rows_scored(
            lambda: cluster.query(queries[0], k=K, model_id=model, db_id=db)
        )
        second, _ = _rows_scored(
            lambda: cluster.query(queries[1], k=K, model_id=model, db_id=db)
        )
        assert first == second == N


dead_sets = st.sets(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=3
)


class TestSharingNeverChangesAnAnswer:
    @given(
        seed=st.integers(0, 2**16),
        hedge=st.floats(0.05, 3.0),
        spread=st.floats(0.0, 4.0),
        dead=dead_sets,
    )
    @settings(max_examples=25, deadline=None)
    def test_results_and_caches_equal_unshared_run(
        self, seed, hedge, spread, dead
    ):
        # at least one shard must keep a live replica, or the query raises
        assume(any({(s, 0), (s, 1)} - dead for s in range(3)))
        app = get_app("tir")
        cfg = dict(
            n_shards=3, n_replicas=2, hedge_fraction=hedge,
            straggler_spread=spread, fail_shards=tuple(sorted(dead)),
            seed=seed,
        )
        shared, s_model, s_db, queries = _build(app, **cfg)
        alone, a_model, a_db, _ = _build(app, **cfg)
        # repeats hit the caches; the rotation moves the primaries
        order = [0, 1, 0, 2, 1, 0]
        got = [
            shared.query(queries[i], k=K, model_id=s_model, db_id=s_db).to_dict()
            for i in order
        ]
        with _never_shared():
            want = [
                alone.query(queries[i], k=K, model_id=a_model, db_id=a_db).to_dict()
                for i in order
            ]
        assert got == want
        assert _cache_state(shared) == _cache_state(alone)


class TestDivergedReplicasDoNotShare:
    @staticmethod
    def _hedge_winning_config():
        """1 shard x 2 replicas where the backup (replica 1) always wins."""
        for seed in range(1000):
            cfg = ClusterConfig(
                n_shards=1, n_replicas=2, hedge_fraction=0.25,
                straggler_spread=3.0, seed=seed,
            )
            if cfg.replica_slowdown(0, 0) > 0.5 + cfg.replica_slowdown(0, 1):
                return cfg
        raise AssertionError("no seed makes replica 1 win the hedge")

    def test_winning_hedge_returns_its_own_rows(self, tir_app):
        cluster = DeepStoreCluster(self._hedge_winning_config())
        rng = np.random.default_rng(5)
        features = rng.normal(0, 1, (N, tir_app.feature_floats))
        features = features.astype(np.float32)
        db = cluster.write_db(features)
        graph = tir_app.build_scn(seed=0)
        model = cluster.load_graph(graph)
        qfv = rng.normal(0, 1, tir_app.feature_floats).astype(np.float32)

        scores = DeepStoreDevice()._score_features(graph, qfv, features)
        best, worst = features[np.argmax(scores)], features[np.argmin(scores)]
        # replica 0 (query 0's primary) grows K copies of the best row,
        # which crowd into its top-K; replica 1 grows K copies of the
        # worst row, which leave its top-K untouched
        for replica, row in ((0, best), (1, worst)):
            device = cluster.devices[(0, replica)]
            device.append_db(
                cluster._db_map[db][(0, replica)], np.tile(row, (K, 1))
            )
            assert device.db_epoch(cluster._db_map[db][(0, replica)]) == 1

        def own_answer(replica):
            device = cluster.devices[(0, replica)]
            handle = device.query(
                qfv, k=K, model_id=cluster._model_map[model][(0, replica)],
                db_id=cluster._db_map[db][(0, replica)],
            )
            return device.get_results(handle).feature_ids

        primary_ids, backup_ids = own_answer(0), own_answer(1)
        assert (primary_ids >= N).any()  # a shared scan would leak these
        assert not np.array_equal(primary_ids, backup_ids)

        result = cluster.query(qfv, k=K, model_id=model, db_id=db)
        assert result.hedge_wins == 1
        assert result.shards[0].replica == 1
        assert np.array_equal(result.feature_ids, backup_ids)


@pytest.mark.parametrize("epoch_bumps", [0, 1])
def test_device_consults_memo_only_at_epoch_zero(tir_app, epoch_bumps):
    """A memo entry is reused only by an unmutated database."""
    device = DeepStoreDevice()
    rng = np.random.default_rng(0)
    features = rng.normal(0, 1, (N, tir_app.feature_floats)).astype(np.float32)
    db = device.write_db(features)
    graph = tir_app.build_scn(seed=0)
    model = device.load_graph(graph)
    qfv = rng.normal(0, 1, tir_app.feature_floats).astype(np.float32)
    for _ in range(epoch_bumps):
        device.append_db(db, features[:1])
    end = len(device.read_db(db))
    planted = (np.arange(K, dtype=np.int64), np.full(K, 2.0, np.float32))
    memo = ScanMemo()
    memo.store((graph, 0, end, K), *planted)
    with device._sharing_scans(memo):
        handle = device.query(qfv, k=K, model_id=model, db_id=db)
    assert device._scan_memo is None  # scoped to the block
    result = device.get_results(handle)
    reused = np.array_equal(result.feature_ids, planted[0]) and np.array_equal(
        result.scores, planted[1]
    )
    assert reused == (epoch_bumps == 0)
    # handed-out arrays are copies: the memo's entry stays intact
    result.feature_ids[:] = -1
    assert np.array_equal(memo.lookup((graph, 0, end, K))[0], planted[0])
