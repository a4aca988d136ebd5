"""Device-level top-K follows the canonical order under exact ties.

The canonical order — score descending, feature id ascending on ties —
is what :func:`repro.core.topk.topk_select`, the cluster gather and the
index router already use.  The functional scan must produce it too,
whatever ``SCAN_CHUNK`` is and however numpy's selection breaks ties.
Ties are realistic: saturated float32 sigmoid heads and duplicate rows
both produce them.  The oracle databases below are 50 distinct TextQA
rows tiled many times, so every score occurs once per tile.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterConfig, DeepStoreCluster
from repro.core.api import DeepStoreDevice
from repro.core.topk import topk_order, topk_select
from repro.ingest.device import LifecycleDevice
from repro.workloads import get_app

BASE_ROWS = 50
#: (tiles, scan chunk): both cross at least one chunk boundary, the
#: first with a chunk that is not a multiple of the tile length
TILINGS = [(40, 768), (400, DeepStoreDevice.SCAN_CHUNK)]


@pytest.fixture(scope="module")
def textqa():
    app = get_app("textqa")
    rng = np.random.default_rng(11)
    base = rng.normal(0, 1, (BASE_ROWS, app.feature_floats))
    queries = rng.normal(0, 1, (3, app.feature_floats))
    return (
        app.build_scn(seed=0),
        base.astype(np.float32),
        queries.astype(np.float32),
    )


def _oracle(graph, base, tiles, qfv, k):
    """Canonical top-K of the tiled database: ``lexsort((id, -score))``."""
    scores = np.tile(DeepStoreDevice()._score_features(graph, qfv, base), tiles)
    order = np.lexsort((np.arange(len(scores)), -scores))[:k]
    return order, scores[order]


class TestTopkOrder:
    @given(
        st.lists(st.integers(0, 6).map(lambda i: i / 6.0), min_size=1,
                 max_size=80),
        st.integers(1, 20),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_topk_select(self, scores, k, random):
        ids = list(range(1000, 1000 + len(scores)))
        random.shuffle(ids)
        top = topk_order(np.asarray(ids), np.asarray(scores), k)
        got = [(scores[i], ids[i]) for i in top]
        assert got == topk_select(list(zip(scores, ids)), k)

    def test_rejects_non_positive_k(self):
        with pytest.raises(ValueError):
            topk_order(np.arange(3), np.zeros(3), 0)

    def test_empty_and_nan_inputs(self):
        assert len(topk_order(np.arange(0), np.zeros(0), 3)) == 0
        # a NaN never displaces a real score, and never shrinks the answer
        scores = np.array([np.nan, 0.5, np.nan, 0.9])
        assert topk_order(np.arange(4), scores, 3).tolist() == [3, 1, 0]


@pytest.mark.parametrize("tiles,chunk", TILINGS)
@pytest.mark.parametrize("k", [10, 75])
class TestTiedScans:
    def test_device_scan_is_canonical(self, textqa, tiles, chunk, k):
        graph, base, queries = textqa
        device = DeepStoreDevice()
        device.SCAN_CHUNK = chunk
        db = device.write_db(np.tile(base, (tiles, 1)))
        model = device.load_graph(graph)
        for qfv in queries:
            got = device.get_results(
                device.query(qfv, k=k, model_id=model, db_id=db)
            )
            ids, scores = _oracle(graph, base, tiles, qfv, k)
            assert np.array_equal(got.feature_ids, ids)
            assert np.array_equal(got.scores, scores)

    def test_one_shard_cluster_is_canonical(self, textqa, tiles, chunk, k):
        graph, base, queries = textqa
        cluster = DeepStoreCluster(ClusterConfig(n_shards=1, n_replicas=1))
        cluster.devices[(0, 0)].SCAN_CHUNK = chunk
        db = cluster.write_db(np.tile(base, (tiles, 1)))
        model = cluster.load_graph(graph)
        for qfv in queries:
            got = cluster.query(qfv, k=k, model_id=model, db_id=db)
            ids, scores = _oracle(graph, base, tiles, qfv, k)
            assert np.array_equal(got.feature_ids, ids)
            assert np.array_equal(got.scores, scores)

    def test_id_scan_breaks_ties_by_id_not_position(
        self, textqa, tiles, chunk, k
    ):
        graph, base, queries = textqa
        device = DeepStoreDevice()
        device.SCAN_CHUNK = chunk
        store = np.tile(base, (tiles, 1))
        shuffled = np.random.default_rng(tiles).permutation(len(store))
        ids, scores = device._scan_ids(graph, queries[0], store, shuffled, k)
        want_ids, want_scores = _oracle(graph, base, tiles, queries[0], k)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(scores, want_scores)

    def test_mutated_lifecycle_scan_is_canonical(self, textqa, tiles, chunk, k):
        # one more tile streamed in: the snapshot-visible scan path
        graph, base, queries = textqa
        device = LifecycleDevice()
        device.SCAN_CHUNK = chunk
        db = device.write_db(np.tile(base, (tiles, 1)))
        device.enable_ingest(db)
        device.insert_db(db, base)
        assert device.db_epoch(db) > 0
        model = device.load_graph(graph)
        got = device.get_results(
            device.query(queries[0], k=k, model_id=model, db_id=db)
        )
        ids, scores = _oracle(graph, base, tiles + 1, queries[0], k)
        assert np.array_equal(got.feature_ids, ids)
        assert np.array_equal(got.scores, scores)


def test_cache_hit_reranks_canonically(textqa):
    graph, base, queries = textqa
    device = DeepStoreDevice()
    db = device.write_db(np.tile(base, (40, 1)))
    model = device.load_graph(graph)
    device.set_qc(0.5)
    for _ in range(2):
        got = device.get_results(
            device.query(queries[0], k=10, model_id=model, db_id=db)
        )
    assert got.cache_hit
    ids, scores = _oracle(graph, base, 40, queries[0], 10)
    assert np.array_equal(got.feature_ids, ids)
    assert np.array_equal(got.scores, scores)
