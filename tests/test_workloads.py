"""Tests for the application catalog, feature DBs, and query streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    ALL_APPS,
    FeatureDatasetSpec,
    QueryStream,
    ZipfSampler,
    get_app,
    make_clustered_features,
    plant_neighbors,
)


class TestTable1Calibration:
    """Every application must match its published Table-1 row."""

    def test_feature_size(self, app):
        assert app.feature_bytes == pytest.approx(app.table1.feature_kb * 1024, rel=0.05)

    def test_layer_counts_exact(self, app):
        counts = app.build_scn().count_layers()
        assert counts["conv"] == app.table1.conv_layers
        assert counts["fc"] == app.table1.fc_layers
        assert counts["elementwise"] == app.table1.elementwise_layers

    def test_total_flops_within_10pct(self, app):
        flops = app.build_scn().total_flops()
        assert flops == pytest.approx(app.table1.total_flops, rel=0.10)

    def test_weight_bytes_within_10pct(self, app):
        wb = app.build_scn().weight_bytes()
        assert wb == pytest.approx(app.table1.weight_bytes, rel=0.10)

    def test_scn_outputs_scalar_score(self, app, rng):
        g = app.build_scn()
        n = 3
        q = rng.normal(0, 1, (n, *app.feature_shape)).astype(np.float32)
        d = rng.normal(0, 1, (n, *app.feature_shape)).astype(np.float32)
        out = g.forward({g.input_ids[0]: q, g.input_ids[1]: d})
        assert out.shape == (n, 1)
        assert np.all((out >= 0) & (out <= 1))

    def test_qcn_structure_mirrors_scn(self, app):
        qcn = app.build_qcn()
        assert qcn.count_layers() == app.build_scn().count_layers()
        assert qcn.name.endswith("-qcn")

    def test_lookup(self):
        assert get_app("TIR").name == "tir"
        with pytest.raises(KeyError):
            get_app("nope")

    def test_catalog_complete(self):
        assert set(ALL_APPS) == {"reid", "mir", "estp", "tir", "textqa"}


#: (app, seed) -> (SCN, QCN) parameter digests; weights are a function
#: of the app and seed alone, however the builder initializes them
PARAMETER_DIGESTS = {
    ("estp", 0): ("bba860a60b7f73f0", "7b1a8023be8ea8e9"),
    ("estp", 3): ("17d4ff90523a435e", "8a9fe8bcd0802aef"),
    ("mir", 0): ("0b4c44232dea97af", "0adcc4bb2406a698"),
    ("mir", 3): ("13676bfdabc1e42c", "3d7b41525ac258fc"),
    ("reid", 0): ("90ccb14073e7d51a", "b4b59d221ca7f4fb"),
    ("reid", 3): ("568d75365fd9f107", "0c579556afac1e26"),
    ("textqa", 0): ("e735277fe61a42b4", "93e04ab76431f551"),
    ("textqa", 3): ("31dc1d15327d7245", "33fa78135e51ab59"),
    ("tir", 0): ("eb2a165be7c306eb", "5ca1e2ada144e5a6"),
    ("tir", 3): ("beadc61f13d67a49", "7f91442f1d1448b0"),
}


def _parameter_digest(graph) -> str:
    h = hashlib.sha256(graph.name.encode())
    for nid in sorted(graph.params):
        for key in sorted(graph.params[nid]):
            a = graph.params[nid][key]
            h.update(f"{nid}:{key}:{a.dtype}:{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name,seed", sorted(PARAMETER_DIGESTS))
def test_parameter_digests_pinned(name, seed):
    app = get_app(name)
    got = (
        _parameter_digest(app.build_scn(seed=seed)),
        _parameter_digest(app.build_qcn(seed=seed)),
    )
    assert got == PARAMETER_DIGESTS[(name, seed)]


class TestFeatureDatasets:
    def test_deterministic(self):
        spec = FeatureDatasetSpec(n_features=500, dim=32, seed=9)
        f1, l1 = make_clustered_features(spec)
        f2, l2 = make_clustered_features(spec)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(l1, l2)

    def test_clustering_structure(self):
        spec = FeatureDatasetSpec(n_features=2000, dim=64, n_intents=8,
                                  noise=0.2, seed=1)
        features, labels = make_clustered_features(spec)
        centroids = spec.centroids()
        # features sit closer to their own centroid than to others
        own = np.linalg.norm(features - centroids[labels], axis=1)
        other = np.linalg.norm(features - centroids[(labels + 1) % 8], axis=1)
        assert (own < other).mean() > 0.97

    def test_plant_neighbors(self, rng):
        features = rng.normal(0, 1, (100, 16)).astype(np.float32)
        query = rng.normal(0, 1, 16).astype(np.float32)
        planted_features, idx = plant_neighbors(features, query, k=5, seed=0)
        assert len(idx) == 5
        dist = np.linalg.norm(planted_features[idx] - query, axis=1)
        assert dist.max() < 1.0

    def test_plant_validation(self, rng):
        features = rng.normal(0, 1, (10, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            plant_neighbors(features, features[0], k=11)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FeatureDatasetSpec(n_features=0, dim=4)
        with pytest.raises(ValueError):
            FeatureDatasetSpec(n_features=10, dim=4, noise=-1)


class TestZipfSampler:
    def test_skew_increases_with_alpha(self):
        flat = ZipfSampler(100, 0.0).probabilities
        skewed = ZipfSampler(100, 0.7).probabilities
        very = ZipfSampler(100, 1.2).probabilities
        assert flat[0] == pytest.approx(0.01)
        assert skewed[0] < very[0]
        assert skewed[0] > flat[0]

    def test_probabilities_sum_to_one(self):
        assert ZipfSampler(500, 0.7).probabilities.sum() == pytest.approx(1.0)

    def test_sampling_respects_skew(self):
        s = ZipfSampler(50, 1.0, seed=0)
        draws = s.sample(20000)
        counts = np.bincount(draws, minlength=50)
        assert counts[0] > counts[25] > 0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 2_000),
        alpha=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 300), min_size=1, max_size=4),
    )
    def test_draws_equal_generator_choice(self, n, alpha, seed, sizes):
        # the same ranks, dtype and generator state as choice(p=...),
        # call after call
        sampler = ZipfSampler(n, alpha, seed=seed)
        rng = np.random.default_rng(seed)
        for size in sizes:
            expected = rng.choice(n, size=size, p=sampler.probabilities)
            drawn = sampler.sample(size)
            assert drawn.dtype == expected.dtype
            np.testing.assert_array_equal(drawn, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 0.7)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.1)


class TestQueryStream:
    def test_deterministic(self):
        s = QueryStream(dim=16, n_intents=10, seed=4)
        a = s.generate(50)
        b = s.generate(50)
        for x, y in zip(a, b):
            assert x.intent == y.intent
            np.testing.assert_array_equal(x.qfv, y.qfv)

    def test_same_intent_queries_are_similar(self):
        s = QueryStream(dim=64, n_intents=4, paraphrase_noise=0.1, seed=0)
        records = s.generate(400)
        by_intent = {}
        for r in records:
            by_intent.setdefault(r.intent, []).append(r.qfv)
        centroids = s.centroids()
        for intent, qfvs in by_intent.items():
            stack = np.stack(qfvs)
            assert np.linalg.norm(stack - centroids[intent], axis=1).mean() < 2.0

    def test_zipf_concentrates_popular_intents(self):
        s = QueryStream(dim=8, n_intents=100, distribution="zipf", alpha=1.0, seed=1)
        records = s.generate(5000)
        intents = np.array([r.intent for r in records])
        top10_share = np.isin(intents, np.arange(10)).mean()
        assert top10_share > 0.3

    def test_uniform_spreads(self):
        s = QueryStream(dim=8, n_intents=100, distribution="uniform", seed=1)
        intents = np.array([r.intent for r in s.generate(5000)])
        assert np.isin(intents, np.arange(10)).mean() < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryStream(dim=8, n_intents=4, distribution="pareto")
        with pytest.raises(ValueError):
            QueryStream(dim=8, n_intents=4).generate(0)


class TestPretrained:
    def test_trained_scn_separates_pairs(self, rng):
        from repro.nn.training import make_pair_dataset
        from repro.workloads.pretrained import train_scn

        app = get_app("textqa")
        graph = train_scn(app, seed=0, n_pairs=4000)
        q, f, y = make_pair_dataset(rng, app.feature_floats, 400)
        scores = graph.forward({0: q, 1: f}).reshape(-1)
        acc = ((scores > 0.5) == (y > 0.5)).mean()
        assert acc > 0.85

    def test_cache_returns_same_object(self):
        from repro.workloads.pretrained import train_scn

        app = get_app("textqa")
        assert train_scn(app, seed=0) is train_scn(app, seed=0)
