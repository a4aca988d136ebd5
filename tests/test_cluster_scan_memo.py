"""Each set of stored rows is scored once per query, process-wide.

Scoring is a pure function of the model, the query and the stored rows,
so :func:`repro.sim.fastpath.scan_topk` keeps full-scan top-Ks keyed on
exactly those: the graph (by identity, while its weight arrays stay the
same), a digest of the query and a digest of the scanned rows.  A hedge
backup, a twin cluster and an appended replica holding the same rows all
reuse one scan.  The claims pinned here:

* a cache-missing read on a hedged 3x2 cluster scores exactly the
  dataset's rows, and a twin cluster over the same rows scores none;
* sharing never changes an answer: every result field and every
  replica's query-cache contents equal a run whose memo always misses;
* a replica whose rows diverged returns its own rows;
* re-training a graph misses, and writing its weights in place raises;
* :func:`~repro.sim.fastpath.clear_tables` empties the memo.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import ClusterConfig, DeepStoreCluster
from repro.core.api import DeepStoreDevice
from repro.nn.training import PairTrainer, TrainConfig
from repro.sim import fastpath
from repro.workloads import get_app

N = 240
K = 5
#: cluster_read's shape: hedge at 0.3x healthy, stragglers, a dead replica
HEDGED = dict(
    n_shards=3, n_replicas=2, hedge_fraction=0.3, straggler_spread=0.5,
    fail_shards=((1, 0),), seed=3,
)


def _build(app, cache=True, graph=None, **kw):
    cluster = DeepStoreCluster(ClusterConfig(**kw))
    rng = np.random.default_rng(kw.get("seed", 0))
    features = rng.normal(0, 1, (N, app.feature_floats)).astype(np.float32)
    db = cluster.write_db(features)
    model = cluster.load_graph(graph or app.build_scn(seed=0))
    if cache:
        cluster.set_qc(0.5, capacity=4)
    queries = rng.normal(0, 1, (3, app.feature_floats)).astype(np.float32)
    return cluster, model, db, queries


@contextlib.contextmanager
def _never_shared():
    """Force every memo lookup to miss: each replica scans on its own."""
    fastpath.clear_tables()
    with mock.patch.object(fastpath, "SCAN_MEMO_ENTRIES", 0):
        yield


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


def _device_with(graph, features):
    device = DeepStoreDevice()
    return device, device.load_graph(graph), device.write_db(features)


def _scan(device, model, db, qfv):
    """``(rows scored, result)`` of one device query."""
    return _rows_scored(
        lambda: device.get_results(
            device.query(qfv, k=K, model_id=model, db_id=db)
        )
    )


@pytest.fixture
def scan_inputs(tir_app):
    rng = np.random.default_rng(11)
    features = rng.normal(0, 1, (N, tir_app.feature_floats)).astype(np.float32)
    qfv = rng.normal(0, 1, tir_app.feature_floats).astype(np.float32)
    return tir_app.build_scn(seed=0), features, qfv


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

    def test_twin_cluster_scores_no_rows(self, tir_app):
        graph = tir_app.build_scn(seed=0)
        first, f_model, f_db, queries = _build(tir_app, graph=graph, **HEDGED)
        twin, t_model, t_db, _ = _build(tir_app, graph=graph, **HEDGED)
        rows, want = _rows_scored(
            lambda: first.query(queries[0], k=K, model_id=f_model, db_id=f_db)
        )
        hits = fastpath.stats["scan_hits"]
        twin_rows, got = _rows_scored(
            lambda: twin.query(queries[0], k=K, model_id=t_model, db_id=t_db)
        )
        assert rows == N and twin_rows == 0
        assert fastpath.stats["scan_hits"] > hits
        assert got.to_dict() == want.to_dict()


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
        graph = app.build_scn(seed=0)
        shared, s_model, s_db, queries = _build(app, graph=graph, **cfg)
        alone, a_model, a_db, _ = _build(app, graph=graph, **cfg)
        # repeats hit the caches; the rotation moves the primaries
        order = [0, 1, 0, 2, 1, 0]
        with _never_shared():
            want = [
                alone.query(queries[i], k=K, model_id=a_model, db_id=a_db).to_dict()
                for i in order
            ]
        got = [
            shared.query(queries[i], k=K, model_id=s_model, db_id=s_db).to_dict()
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


class TestContentKeyedMemo:
    def test_appended_db_shares_with_identical_rows(self, scan_inputs):
        # epoch > 0 is no bar: the key is the rows, not the history
        graph, features, qfv = scan_inputs
        grown, g_model, g_db = _device_with(graph, features[: N - 7])
        grown.append_db(g_db, features[N - 7 :])
        assert grown.db_epoch(g_db) == 1
        fresh, f_model, f_db = _device_with(graph, features)
        rows, want = _scan(fresh, f_model, f_db, qfv)
        shared_rows, got = _scan(grown, g_model, g_db, qfv)
        assert (rows, shared_rows) == (N, 0)
        assert np.array_equal(got.feature_ids, want.feature_ids)
        assert np.array_equal(got.scores, want.scores)

    def test_retrained_graph_misses(self, scan_inputs):
        graph, features, qfv = scan_inputs
        device, model, db = _device_with(graph, features)
        _, before = _scan(device, model, db, qfv)
        rng = np.random.default_rng(2)
        PairTrainer(graph, TrainConfig(epochs=1, batch_size=8)).fit(
            rng.normal(0, 1, (8, features.shape[1])).astype(np.float32),
            features[:8],
            (rng.random((8, 1)) > 0.5).astype(np.float32),
        )
        rows, after = _scan(device, model, db, qfv)
        assert rows == N
        with _never_shared():
            _, want = _scan(device, model, db, qfv)
        assert not np.array_equal(after.scores, before.scores)
        assert np.array_equal(after.feature_ids, want.feature_ids)
        assert np.array_equal(after.scores, want.scores)

    def test_in_place_weight_write_raises(self, scan_inputs):
        graph, features, qfv = scan_inputs
        device, model, db = _device_with(graph, features)
        _scan(device, model, db, qfv)
        weights = next(iter(graph.params.values()))["W"]
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 1.0

    def test_hits_hand_out_copies(self, scan_inputs):
        graph, features, qfv = scan_inputs
        device, model, db = _device_with(graph, features)
        _, first = _scan(device, model, db, qfv)
        want = first.feature_ids.copy()
        first.feature_ids[:] = -1
        rows, again = _scan(device, model, db, qfv)
        assert rows == 0
        assert np.array_equal(again.feature_ids, want)

    def test_clear_tables_empties_the_memo(self, scan_inputs):
        graph, features, qfv = scan_inputs
        device, model, db = _device_with(graph, features)
        _scan(device, model, db, qfv)
        assert fastpath._scans and fastpath.stats["scan_misses"] > 0
        fastpath.clear_tables()
        assert not fastpath._scans
        assert fastpath.stats["scan_hits"] == fastpath.stats["scan_misses"] == 0
        rows, _ = _scan(device, model, db, qfv)
        assert rows == N

    def test_oldest_entry_is_evicted_first(self, scan_inputs):
        graph, features, qfv = scan_inputs
        device, model, db = _device_with(graph, features)
        fastpath.clear_tables()
        with mock.patch.object(fastpath, "SCAN_MEMO_ENTRIES", 2):
            for shift in range(3):
                _scan(device, model, db, qfv + shift)
            assert len(fastpath._scans) == 2
            assert _scan(device, model, db, qfv + 2)[0] == 0
            assert _scan(device, model, db, qfv)[0] == N
