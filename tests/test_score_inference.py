"""The inference-mode SCN forward scores exactly like the training pass.

``DeepStoreDevice._score_features`` feeds the query as one stride-0 row
and runs ``Graph.forward`` without ``keep_activations``: activations are
dropped after their last consumer and an ``Activation`` may overwrite a
buffer the pass owns.  Every case here must score byte for byte like
the reference, a materialized contiguous query batch run with
``keep_activations=True`` (no buffer reuse), and must leave the
caller's query, the scored rows and the store they are a view of
untouched.
"""

import numpy as np
import pytest

from repro.core.api import DeepStoreDevice
from repro.nn import GraphBuilder
from repro.nn.quantization import quantize_graph
from repro.workloads.apps import ALL_APPS, APP_NAMES

DEVICE = DeepStoreDevice()


def _reference(graph, qfv, features):
    q_id, d_id = graph.input_ids
    n = len(features)
    q_shape, d_shape = graph.shape_of(q_id), graph.shape_of(d_id)
    q_batch = np.broadcast_to(np.asarray(qfv, np.float32).reshape(q_shape), (n, *q_shape))
    out = graph.forward(
        {
            q_id: np.ascontiguousarray(q_batch),
            d_id: np.ascontiguousarray(features.reshape((n, *d_shape))),
        },
        keep_activations=True,
    )
    return out.reshape(-1)


def _check(graph, dim, rows=64, seed=0):
    """Score a ``_scan``-style slice of a store; compare and check inputs."""
    rng = np.random.default_rng(seed)
    store = rng.normal(0, 1, (rows + 8, dim)).astype(np.float32)
    qfv = rng.normal(0, 1, dim).astype(np.float32)
    store_before, qfv_before = store.copy(), qfv.copy()
    features = store[4 : 4 + rows]  # a view, as _scan feeds it
    expected = _reference(graph, qfv, features)
    got = DEVICE._score_features(graph, qfv, features)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    assert qfv.tobytes() == qfv_before.tobytes()
    assert store.tobytes() == store_before.tobytes()
    assert features.tobytes() == store_before[4 : 4 + rows].tobytes()
    return got


def _rows(app):
    return 24 if app.name == "reid" else 300


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("net", ["scn", "qcn"])
def test_app_networks(name, net):
    app = ALL_APPS[name]
    graph = app.build_scn(seed=3) if net == "scn" else app.build_qcn(seed=3)
    _check(graph, app.feature_floats, rows=_rows(app))


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("precision", ["int8", "fp16"])
def test_quantized_models(name, precision):
    app = ALL_APPS[name]
    graph = quantize_graph(app.build_scn(seed=5), precision)
    _check(graph, app.feature_floats, rows=_rows(app))


def _two_inputs(dim):
    b = GraphBuilder("hand")
    return b, b.input((dim,), "qfv"), b.input((dim,), "dfv")


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh", "identity"])
def test_query_feeds_a_dense(kind):
    # the stride-0 query reaches BLAS: Dense must copy it to unit strides
    b, q, d = _two_inputs(48)
    hq = b.dense(q, 32, activation=kind)
    hd = b.dense(d, 32, activation=kind)
    h = b.elementwise(hq, hd, "mul")
    h = b.dense(h, 2)
    _check(b.build(b.score_head(h, "sigmoid_diff"), seed=2), 48, rows=96)


def test_query_feeds_a_dense_without_bias():
    b, q, d = _two_inputs(40)
    hq = b.dense(q, 40, bias=False)
    h = b.dot(hq, d)
    _check(b.build(b.score_head(h, "sigmoid", affine=True), seed=4), 40, rows=50)


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
def test_two_consumers_one_an_activation(kind):
    # the Activation runs first: overwriting h would corrupt the add
    b, q, d = _two_inputs(32)
    h = b.elementwise(q, d, "mul")
    a = b.activation(h, kind)
    s = b.elementwise(h, a, "add")
    # and here it runs last, so it may overwrite the Dense output
    e = b.dense(s, 32)
    f = b.dense(e, 32)
    g = b.activation(e, kind)
    s = b.elementwise(f, g, "sub")
    _check(b.build(b.score_head(b.dense(s, 2), "sigmoid_diff"), seed=6), 32, rows=80)


def test_flatten_then_activation():
    # relu reads a Flatten view of the difference; the Dense still reads it
    b = GraphBuilder("hand")
    q = b.input((2, 4, 4), "qfv")
    d = b.input((2, 4, 4), "dfv")
    a = b.elementwise(q, d, "sub")
    r = b.activation(b.flatten(a), "relu")
    s = b.elementwise(r, b.dense(a, 32), "add")
    _check(b.build(b.score_head(b.dense(s, 2), "sigmoid_diff"), seed=7), 32, rows=40)


def test_identity_aliases_are_not_overwritten():
    b, q, d = _two_inputs(16)
    h = b.elementwise(q, d, "sub")
    i = b.activation(h, "identity")
    r = b.activation(i, "relu")
    s = b.elementwise(r, h, "add")
    _check(b.build(b.score_head(b.dense(s, 2), "sigmoid_diff"), seed=8), 16, rows=30)


def test_activation_on_a_feed_never_writes_it():
    # relu straight off the feature rows: a feed is never overwritten
    b, q, d = _two_inputs(24)
    r = b.activation(d, "relu")
    h = b.elementwise(q, r, "mul")
    _check(b.build(b.score_head(b.dense(h, 2), "sigmoid_diff"), seed=9), 24, rows=20)


def test_intermediate_output_stays_intact():
    # the output node also feeds an Activation: it must not be overwritten
    b, q, d = _two_inputs(20)
    h = b.dense(b.elementwise(q, d, "mul"), 1)
    b.activation(h, "relu")
    graph = b.build(h, seed=10)
    _check(graph, 20, rows=25)
