"""Tests for the pair trainer and serialization."""

import numpy as np
import pytest

from repro.nn import (
    Graph,
    GraphBuilder,
    PairTrainer,
    TrainConfig,
    graph_from_bytes,
    graph_to_bytes,
)
from repro.nn.layers import Input
from repro.nn.onnx_lite import SerializationError
from repro.nn.training import bce_loss_and_grad, make_pair_dataset
from repro.workloads import pretrained
from repro.workloads.apps import APP_NAMES, get_app


def tiny_scn(seed=0):
    b = GraphBuilder("tiny")
    q = b.input((16,), "qfv")
    d = b.input((16,), "dfv")
    h = b.elementwise(q, d, "absdiff")
    h = b.dense(h, 8, activation="relu")
    h = b.dense(h, 1)
    out = b.score_head(h, "sigmoid")
    return b.build(out, seed=seed)


class TestPairDataset:
    def test_shapes_and_balance(self, rng):
        q, f, y = make_pair_dataset(rng, 16, 200)
        assert q.shape == f.shape == (200, 16)
        assert y.shape == (200,)
        assert 90 <= y.sum() <= 110

    def test_positives_are_closer(self, rng):
        q, f, y = make_pair_dataset(rng, 32, 400)
        d = np.linalg.norm(q - f, axis=1)
        assert d[y > 0.5].mean() < d[y < 0.5].mean()


class TestPairTrainer:
    def test_converges_on_separable_pairs(self, rng):
        g = tiny_scn()
        q, f, y = make_pair_dataset(rng, 16, 1200)
        trainer = PairTrainer(g, TrainConfig(epochs=10, seed=0))
        report = trainer.fit(q, f, y)
        assert report.final_accuracy > 0.9
        assert report.losses[-1] < report.losses[0]

    def test_evaluate_on_holdout(self, rng):
        g = tiny_scn()
        q, f, y = make_pair_dataset(rng, 16, 1200)
        trainer = PairTrainer(g, TrainConfig(epochs=10, seed=0))
        trainer.fit(q[:1000], f[:1000], y[:1000])
        assert trainer.evaluate(q[1000:], f[1000:], y[1000:]) > 0.85

    def test_score_shape(self, rng):
        g = tiny_scn()
        trainer = PairTrainer(g)
        q = rng.normal(0, 1, (7, 16)).astype(np.float32)
        assert trainer.score(q, q).shape == (7,)

    def test_misaligned_inputs_rejected(self, rng):
        trainer = PairTrainer(tiny_scn())
        q, f, y = make_pair_dataset(rng, 16, 100)
        with pytest.raises(ValueError):
            trainer.fit(q, f[:50], y)

    def test_requires_two_inputs(self):
        b = GraphBuilder()
        x = b.input((4,))
        h = b.dense(x, 1)
        out = b.score_head(h, "sigmoid")
        g = b.build(out)
        with pytest.raises(ValueError):
            PairTrainer(g)

    def test_training_is_reproducible(self, rng):
        q, f, y = make_pair_dataset(rng, 16, 600)
        r1 = PairTrainer(tiny_scn(1), TrainConfig(epochs=3, seed=5)).fit(q, f, y)
        r2 = PairTrainer(tiny_scn(1), TrainConfig(epochs=3, seed=5)).fit(q, f, y)
        assert r1.losses == r2.losses


class TestSerialization:
    def test_roundtrip_preserves_behaviour(self, rng):
        g = tiny_scn(seed=2)
        g2 = graph_from_bytes(graph_to_bytes(g))
        q = rng.normal(0, 1, (5, 16)).astype(np.float32)
        d = rng.normal(0, 1, (5, 16)).astype(np.float32)
        np.testing.assert_allclose(
            g.forward({0: q, 1: d}), g2.forward({0: q, 1: d}), rtol=1e-6
        )

    def test_roundtrip_preserves_accounting(self):
        g = tiny_scn()
        g2 = graph_from_bytes(graph_to_bytes(g))
        assert g2.total_flops() == g.total_flops()
        assert g2.parameter_count() == g.parameter_count()
        assert g2.count_layers() == g.count_layers()
        assert g2.name == g.name

    def test_blob_size_dominated_by_weights(self):
        g = tiny_scn()
        assert len(graph_to_bytes(g)) >= g.weight_bytes()
        assert len(graph_to_bytes(g)) < g.weight_bytes() + 8192

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            graph_from_bytes(b"NOTAMODELxxxxxxxxxxxx")

    def test_truncated_blob_rejected(self):
        blob = graph_to_bytes(tiny_scn())
        with pytest.raises(SerializationError):
            graph_from_bytes(blob[: len(blob) // 2])

    def test_truncated_header_rejected(self):
        blob = graph_to_bytes(tiny_scn())
        with pytest.raises(SerializationError):
            graph_from_bytes(blob[:16])

    def test_trained_weights_survive_roundtrip(self, rng):
        g = tiny_scn()
        q, f, y = make_pair_dataset(rng, 16, 400)
        PairTrainer(g, TrainConfig(epochs=3)).fit(q, f, y)
        g2 = graph_from_bytes(graph_to_bytes(g))
        for node_id, params in g.params.items():
            for key, tensor in params.items():
                np.testing.assert_array_equal(tensor, g2.params[node_id][key])


def _full_backward(graph, grad_out):
    """Backprop that computes every input gradient (the oracle for the
    needs-grad set, which skips those no parameter update consumes)."""
    acts = graph._last_activations
    grads_act = {graph.output_id: grad_out}
    grads_param = {}
    for node in reversed(graph.nodes):
        if isinstance(node.op, Input) or node.node_id not in grads_act:
            continue
        g_out = grads_act.pop(node.node_id)
        g_params, g_inputs = node.op.backward(
            graph.params.get(node.node_id, {}),
            [acts[i] for i in node.inputs],
            acts[node.node_id],
            g_out,
        )
        if g_params:
            grads_param[node.node_id] = g_params
        for in_id, g in zip(node.inputs, g_inputs):
            grads_act[in_id] = grads_act[in_id] + g if in_id in grads_act else g
    return grads_param


def _param_bytes(grads):
    return {(n, k): v.tobytes() for n, p in grads.items() for k, v in p.items()}


class TestNeedsGradBackward:
    """Skipping unconsumed input gradients leaves every update byte-equal."""

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_parameter_gradients_match_full_backprop(self, name, rng):
        app = get_app(name)
        graph = app.build_scn(seed=2)
        q = rng.normal(0, 1, (6, *app.feature_shape)).astype(np.float32)
        d = rng.normal(0, 1, (6, *app.feature_shape)).astype(np.float32)
        q_id, d_id = graph.input_ids
        scores = graph.forward({q_id: q, d_id: d}, keep_activations=True)
        _, grad_out = bce_loss_and_grad(scores, (rng.random(6) > 0.5).astype(np.float32))
        got = _param_bytes(graph.backward(grad_out))
        assert got == _param_bytes(_full_backward(graph, grad_out))
        assert len(got) == sum(len(p) for p in graph.params.values())

    def test_trained_tir_weights_match_full_backprop(self, monkeypatch):
        app = get_app("tir")
        trained = pretrained.train_scn(app, seed=0)
        monkeypatch.setattr(pretrained, "_CACHE", {})
        monkeypatch.setattr(Graph, "backward", _full_backward)
        reference = pretrained.train_scn(app, seed=0)
        assert _param_bytes(trained.params) == _param_bytes(reference.params)
