"""The IVF layout on clustered data: k-means, lists, and the nprobe trade.

The paper (§7) points at reorganizing feature vectors in storage so a
query can skip most of the database.  :mod:`repro.index` is the
reproduction's one model of that idea; these cases pin what it must
deliver on a database with planted intents:

* :func:`train_kmeans` recovers the planted clusters, deterministically
  in its seed, and rejects sizes it cannot honour;
* the inverted lists partition the indexed rows, and the built layout
  puts every one of them on flash;
* on :class:`IndexedDevice`, probing fewer lists reads fewer rows and
  costs fewer simulated seconds, and a few probes already recover the
  exact top-K of a query near an intent.
"""

import numpy as np
import pytest

from repro.core.api import DeepStoreApiError
from repro.index import IndexedDevice, assign_canonical, train_kmeans
from repro.index.device import query_exhaustive
from repro.index.kmeans import IndexError_
from repro.workloads import FeatureDatasetSpec, get_app, make_clustered_features
from repro.workloads.pretrained import train_scn

K = 10
N_LISTS = 12
SPEC = FeatureDatasetSpec(n_features=6000, dim=200, n_intents=N_LISTS,
                          noise=0.25, seed=4)


@pytest.fixture(scope="module")
def clustered_db():
    features, labels = make_clustered_features(SPEC)
    return features, labels


@pytest.fixture(scope="module")
def indexed(clustered_db):
    """A channel-level device with a 12-list index over the intents."""
    features, _ = clustered_db
    device = IndexedDevice(level="channel")
    db = device.write_db(features)
    model = device.load_graph(train_scn(get_app("textqa"), seed=0))
    index = device.build_index(db, model, N_LISTS, seed=1)
    return device, db, model, index


def _queries(seed, n=5):
    rng = np.random.default_rng(seed)
    return [
        (SPEC.centroids()[i] + rng.normal(0, 0.1, SPEC.dim)).astype(np.float32)
        for i in range(n)
    ]


def _exact(device, qfv, model, db):
    return query_exhaustive(device, qfv, K, model, db)


class TestTrainKmeansOnPlantedIntents:
    def test_recovers_planted_clusters(self, clustered_db):
        features, labels = clustered_db
        _, assignments = train_kmeans(features, SPEC.n_intents, seed=2)
        # most pairs from the same planted intent should co-cluster
        same_intent = labels[:-1] == labels[1:]
        same_cluster = assignments[:-1] == assignments[1:]
        assert same_cluster[same_intent].mean() > 0.8

    def test_intent_centre_lands_in_its_intents_list(self, clustered_db):
        features, labels = clustered_db
        centroids, assignments = train_kmeans(features, SPEC.n_intents, seed=1)
        home = assign_canonical(SPEC.centroids()[3:4], centroids)[0]
        members = assignments == home
        assert (labels[members] == 3).sum() / (labels == 3).sum() > 0.8

    def test_deterministic_in_seed(self, clustered_db):
        features, _ = clustered_db
        c1, a1 = train_kmeans(features, 8, seed=5)
        c2, a2 = train_kmeans(features, 8, seed=5)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(c1, c2)

    def test_validation(self, clustered_db):
        features, _ = clustered_db
        with pytest.raises(IndexError_):
            train_kmeans(features, 0)
        with pytest.raises(IndexError_):
            train_kmeans(features[:5], 10)
        with pytest.raises(IndexError_):
            train_kmeans(features, 4, iterations=0)


class TestBuiltLayout:
    def test_lists_partition_the_indexed_rows(self, indexed, clustered_db):
        _, _, _, index = indexed
        features, _ = clustered_db
        everything = index.lists.probed_ids(range(index.n_lists))
        np.testing.assert_array_equal(everything, np.arange(len(features)))
        assert sum(index.lists.sizes) == len(features)

    def test_every_indexed_row_is_laid_out_on_flash(self, indexed):
        device, db, _, index = indexed
        meta = device.ssd.ftl.get(db)
        assert index.report.rows == meta.feature_count
        assert index.report.layout_write_seconds > 0
        pages = index.lists.probed_page_offsets(range(index.n_lists), meta)
        assert pages == list(range(meta.total_pages))


class TestProbedScan:
    def test_probed_rows_grow_with_nprobe(self, indexed, clustered_db):
        device, db, model, _ = indexed
        features, _ = clustered_db
        qfv = SPEC.centroids()[0]
        rows = [
            device.get_results(
                device.query(qfv, K, model, db, nprobe=n)
            ).probed_rows
            for n in (1, 4, N_LISTS)
        ]
        assert rows[0] < rows[1] < rows[2] == len(features)

    def test_probing_trades_recall_for_seconds(self, indexed):
        device, db, model, _ = indexed
        queries = _queries(seed=10)
        exact = [_exact(device, q, model, db) for q in queries]
        recalls, seconds = [], []
        for nprobe in (1, 3, N_LISTS):
            got = [
                device.get_results(device.query(q, K, model, db, nprobe=nprobe))
                for q in queries
            ]
            recalls.append(np.mean([
                len(set(g.feature_ids.tolist()) & set(e.feature_ids.tolist())) / K
                for g, e in zip(got, exact)
            ]))
            seconds.append(np.mean([g.seconds for g in got]))
        full_seconds = np.mean([e.seconds for e in exact])
        # more probes: recall up, simulated seconds up
        assert recalls[0] <= recalls[1] <= recalls[2] == 1.0
        assert seconds[0] < seconds[1] < seconds[2] == full_seconds
        # a few probes already recover the exact top-K of a query near an
        # intent, at a clear scan saving (the fixed engine overheads of
        # this small database bound the time ratio)
        assert recalls[1] >= 0.9
        assert full_seconds / seconds[0] > 1.5

    def test_bad_k_rejected(self, indexed):
        device, db, model, _ = indexed
        with pytest.raises(DeepStoreApiError):
            device.query(SPEC.centroids()[0], 0, model, db, nprobe=1)
