"""Finite-difference gradient checks for every differentiable op.

The trainer's manual backprop must match numerical gradients — otherwise
"trained to within 5% accuracy" (paper §3) silently becomes meaningless.
"""

import numpy as np
import pytest

from repro.nn import GraphBuilder
from repro.nn.training import bce_loss_and_grad


def numeric_param_grad(graph, feeds, node_id, key, labels, eps=1e-3):
    """Central-difference gradient of the BCE loss wrt one parameter."""
    tensor = graph.params[node_id][key]
    grad = np.zeros_like(tensor, dtype=np.float64)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = tensor[idx]
        tensor[idx] = original + eps
        loss_plus, _ = bce_loss_and_grad(graph.forward(feeds), labels)
        tensor[idx] = original - eps
        loss_minus, _ = bce_loss_and_grad(graph.forward(feeds), labels)
        tensor[idx] = original
        grad[idx] = (loss_plus - loss_minus) / (2 * eps)
        it.iternext()
    return grad


def analytic_param_grads(graph, feeds, labels):
    scores = graph.forward(feeds, keep_activations=True)
    _, grad_out = bce_loss_and_grad(scores, labels)
    return graph.backward(grad_out)


def check_graph_gradients(graph, feeds, labels, rtol=0.08, atol=2e-3, eps=1e-3):
    analytic = analytic_param_grads(graph, feeds, labels)
    checked = 0
    for node_id, params in analytic.items():
        for key, grad in params.items():
            numeric = numeric_param_grad(graph, feeds, node_id, key, labels, eps=eps)
            np.testing.assert_allclose(grad, numeric, rtol=rtol, atol=atol)
            checked += 1
    assert checked > 0


def make_feeds(rng, shapes, n=6):
    return {
        i: rng.normal(0, 1, (n, *shape)).astype(np.float32)
        for i, shape in enumerate(shapes)
    }


def labels_for(rng, n=6):
    return (rng.random(n) > 0.5).astype(np.float32)


class TestDenseGradients:
    def test_dense_chain(self, rng):
        b = GraphBuilder()
        q = b.input((5,))
        d = b.input((5,))
        h = b.elementwise(q, d, "absdiff")
        h = b.dense(h, 4, activation="relu")
        h = b.dense(h, 1)
        out = b.score_head(h, "sigmoid")
        g = b.build(out, seed=0)
        check_graph_gradients(g, make_feeds(rng, [(5,), (5,)]), labels_for(rng))

    def test_dense_no_bias(self, rng):
        b = GraphBuilder()
        q = b.input((4,))
        d = b.input((4,))
        h = b.dense(d, 4, bias=False)
        s = b.dot(q, h)
        out = b.score_head(s, "sigmoid")
        g = b.build(out, seed=1)
        check_graph_gradients(g, make_feeds(rng, [(4,), (4,)]), labels_for(rng))


class TestConvGradients:
    # the second conv sees a 5x5 map: (2, 2, 0) never reads its last row
    # and column, (5, 3, 2) never reads its last padding row and column
    @pytest.mark.parametrize(
        "kernel, stride, padding",
        [(3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0), (5, 3, 2)],
    )
    def test_conv_stack(self, rng, kernel, stride, padding):
        b = GraphBuilder()
        q = b.input((2, 5, 5))
        d = b.input((2, 5, 5))
        h = b.elementwise(q, d, "absdiff")
        h = b.conv2d(h, 3, kernel=3, padding=1, activation="relu")
        h = b.conv2d(h, 2, kernel=kernel, stride=stride, padding=padding)
        h = b.flatten(h)
        h = b.dense(h, 2)
        out = b.score_head(h, "sigmoid_diff")
        g = b.build(out, seed=2)
        # In float64 the central difference can take a step small enough
        # that no ReLU after the first conv changes side under it.
        g.params = {
            nid: {key: t.astype(np.float64) for key, t in p.items()}
            for nid, p in g.params.items()
        }
        check_graph_gradients(
            g, make_feeds(rng, [(2, 5, 5), (2, 5, 5)], n=4), labels_for(rng, n=4),
            eps=1e-6,
        )


class TestElementwiseGradients:
    @pytest.mark.parametrize("kind", ["add", "sub", "mul"])
    def test_all_kinds(self, rng, kind):
        b = GraphBuilder()
        q = b.input((6,))
        d = b.input((6,))
        h = b.elementwise(q, d, kind)
        h = b.dense(h, 1)
        out = b.score_head(h, "sigmoid")
        g = b.build(out, seed=3)
        check_graph_gradients(g, make_feeds(rng, [(6,), (6,)]), labels_for(rng))


class TestConcatGradients:
    def test_concat_branch(self, rng):
        b = GraphBuilder()
        q = b.input((3,))
        d = b.input((4,))
        h = b.concat(q, d)
        h = b.dense(h, 3, activation="tanh")
        h = b.dense(h, 2)
        out = b.score_head(h, "sigmoid_diff")
        g = b.build(out, seed=4)
        check_graph_gradients(g, make_feeds(rng, [(3,), (4,)]), labels_for(rng))


class TestLoss:
    def test_bce_gradient_is_numeric(self, rng):
        scores = rng.uniform(0.1, 0.9, (8, 1)).astype(np.float32)
        labels = (rng.random(8) > 0.5).astype(np.float32)
        scores = scores.astype(np.float64)
        loss, grad = bce_loss_and_grad(scores, labels)
        eps = 1e-6
        for i in range(8):
            s = scores.copy()
            s[i, 0] += eps
            lp, _ = bce_loss_and_grad(s, labels)
            s[i, 0] -= 2 * eps
            lm, _ = bce_loss_and_grad(s, labels)
            assert grad[i, 0] == pytest.approx((lp - lm) / (2 * eps), rel=5e-3)

    def test_perfect_prediction_low_loss(self):
        scores = np.array([[0.999], [0.001]], dtype=np.float32)
        labels = np.array([1.0, 0.0], dtype=np.float32)
        loss, _ = bce_loss_and_grad(scores, labels)
        assert loss < 0.01
