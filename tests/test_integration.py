"""Cross-module integration scenarios.

Each test exercises a realistic end-to-end flow through several
subsystems at once — the flows a downstream user of this library would
actually run.
"""

import numpy as np
import pytest

from repro import DeepStoreDevice, DeepStoreSystem
from repro.analysis import compare_levels
from repro.baseline import GpuSsdSystem
from repro.index import IndexedDevice
from repro.index.device import query_exhaustive
from repro.core.scheduler import MultiQueryScheduler
from repro.nn import graph_from_bytes, graph_to_bytes
from repro.nn.quantization import quantize_graph
from repro.workloads import (
    FeatureDatasetSpec,
    QueryStream,
    capture_trace,
    get_app,
    make_clustered_features,
    plant_neighbors,
    replay_trace,
    train_scn,
)

from tests.conftest import make_db


class TestTrainServeRetrieve:
    """Train -> serialize -> load into device -> query -> verify."""

    def test_full_model_lifecycle(self, rng):
        app = get_app("textqa")
        trained = train_scn(app, seed=0)

        # ship the model through the ONNX-like format, as loadModel does
        blob = graph_to_bytes(trained)
        restored = graph_from_bytes(blob)

        features = rng.normal(0, 1, (4000, 200)).astype(np.float32)
        anchor = rng.normal(0, 1, 200).astype(np.float32)
        features, planted = plant_neighbors(features, anchor, k=5,
                                            noise=0.2, seed=1)

        device = DeepStoreDevice()
        db = device.write_db(features)
        model = device.load_model(blob)
        qfv = anchor + rng.normal(0, 0.2, 200).astype(np.float32)
        result = device.get_results(device.query(qfv, 10, model, db))
        recall = len(set(result.feature_ids.tolist()) & set(planted.tolist()))
        assert recall >= 4
        # and the restored graph scores identically to the original
        tiled = np.repeat(qfv[None], 16, axis=0)
        scores_a = trained.forward({0: tiled, 1: features[:16]})
        scores_b = restored.forward({0: tiled, 1: features[:16]})
        np.testing.assert_allclose(scores_a, scores_b, rtol=1e-6)

    def test_quantized_lifecycle(self, rng):
        app = get_app("textqa")
        trained = train_scn(app, seed=0)
        int8 = quantize_graph(trained, "int8")

        features = rng.normal(0, 1, (2000, 200)).astype(np.float32)
        anchor = rng.normal(0, 1, 200).astype(np.float32)
        features, planted = plant_neighbors(features, anchor, k=5,
                                            noise=0.2, seed=2)
        device = DeepStoreDevice()
        db = device.write_db(features)
        model = device.load_graph(int8)
        qfv = anchor + rng.normal(0, 0.2, 200).astype(np.float32)
        result = device.get_results(device.query(qfv, 10, model, db))
        recall = len(set(result.feature_ids.tolist()) & set(planted.tolist()))
        assert recall >= 4  # quantization preserves retrieval


class TestEvaluationConsistency:
    """The evaluation paths must tell one coherent story."""

    def test_api_latency_matches_system_model(self, rng):
        app = get_app("tir")
        device = DeepStoreDevice(level="channel")
        features = rng.normal(0, 1, (8192, 512)).astype(np.float32)
        db = device.write_db(features)
        model = device.load_graph(app.build_scn())
        result = device.get_results(
            device.query(rng.normal(0, 1, 512).astype(np.float32), 5, model, db)
        )
        system = DeepStoreSystem.at_level("channel")
        meta = device.ssd.ftl.get(db)
        expected = system.query_latency(app, meta, graph=device._models[model])
        assert result.latency.total_seconds == pytest.approx(
            expected.total_seconds, rel=1e-6
        )

    def test_speedup_consistent_between_metrics_and_raw_models(self, ssd):
        app = get_app("mir")
        meta = make_db(ssd, app.feature_bytes, gigabytes=2.0)
        baseline = GpuSsdSystem()
        cell = [c for c in compare_levels(app, meta, baseline=baseline)
                if c.level == "channel"][0]
        raw = baseline.query_cost(app, meta.feature_count).seconds / \
            DeepStoreSystem.at_level("channel").query_latency(app, meta).total_seconds
        assert cell.speedup == pytest.approx(raw, rel=1e-6)

    def test_scheduler_consistent_with_single_query(self, ssd):
        app = get_app("estp")
        meta = make_db(ssd, app.feature_bytes, gigabytes=2.0)
        single = DeepStoreSystem.at_level("channel").query_latency(app, meta)
        shared = MultiQueryScheduler().shared_scan(app, meta, 1)
        assert shared.scan_seconds == pytest.approx(
            single.total_seconds, rel=0.15
        )


class TestCacheUnderRealisticStream:
    def test_device_cache_tracks_stream_locality(self, rng):
        app = get_app("textqa")
        trained = train_scn(app, seed=0)
        stream = QueryStream(
            dim=200, n_intents=12, distribution="zipf", alpha=0.9,
            paraphrase_noise=0.08, seed=8,
        )
        corpus = rng.normal(0, 1, (5000, 200)).astype(np.float32)
        device = DeepStoreDevice()
        db = device.write_db(corpus)
        model = device.load_graph(trained)
        device.set_qc(threshold=0.10, capacity=16)
        for record in stream.generate(48):
            device.get_results(device.query(record.qfv, 5, model, db))
        cache = device.query_cache
        # with 12 Zipf-skewed intents and 16 entries, hits dominate after
        # warm-up
        assert cache.hits > cache.misses / 2
        assert len(cache) <= 16

    def test_trace_replay_with_real_device(self, rng):
        """The §5 methodology end to end: capture a trace, replay it
        against the functional device's measured per-query latency."""
        app = get_app("textqa")
        trained = train_scn(app, seed=0)
        corpus = rng.normal(0, 1, (3000, 200)).astype(np.float32)
        device = DeepStoreDevice()
        db = device.write_db(corpus)
        model = device.load_graph(trained)
        device.set_qc(threshold=0.10, capacity=32)
        stream = QueryStream(dim=200, n_intents=10, distribution="zipf",
                             alpha=0.8, paraphrase_noise=0.08, seed=9)
        trace = capture_trace(stream, 40, offered_qps=100.0, seed=3)

        def service(query):
            result = device.get_results(device.query(query.qfv, 5, model, db))
            return result.seconds

        dist = replay_trace(trace, service)
        assert dist.latencies_s.mean() > 0
        assert dist.p99_s >= dist.p50_s


class TestIvfIndexOnDevice:
    def test_probed_index_accelerates_with_recall(self):
        spec = FeatureDatasetSpec(n_features=4000, dim=200, n_intents=8,
                                  noise=0.25, seed=6)
        features, _ = make_clustered_features(spec)
        graph = train_scn(get_app("textqa"), seed=0)
        device = IndexedDevice(level="channel")
        db = device.write_db(features)
        model = device.load_graph(graph)
        device.build_index(db, model, 8, seed=1)
        rng = np.random.default_rng(12)
        qfv = (spec.centroids()[2] + rng.normal(0, 0.1, 200)).astype(np.float32)
        probed = device.get_results(device.query(qfv, 10, model, db, nprobe=2))
        exact = query_exhaustive(device, qfv, 10, model, db)
        hits = set(probed.feature_ids.tolist()) & set(exact.feature_ids.tolist())
        assert len(hits) / 10 > 0.5
        assert probed.probed_rows / len(features) < 0.6
        assert probed.seconds < exact.seconds
