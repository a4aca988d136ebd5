"""Tests for the DAG graph: construction, execution, accounting."""

import numpy as np
import pytest

from repro.nn import Dense, GraphBuilder, Input
from repro.nn.graph import Graph, GraphError


def small_scn(seed: int = 0) -> Graph:
    b = GraphBuilder("t")
    q = b.input((8,), "qfv")
    d = b.input((8,), "dfv")
    h = b.elementwise(q, d, "absdiff")
    h = b.dense(h, 4, activation="relu")
    h = b.dense(h, 1)
    out = b.score_head(h, "sigmoid")
    return b.build(out, seed=seed)


class TestConstruction:
    def test_builder_produces_valid_graph(self):
        g = small_scn()
        assert g.shape_of(g.output_id) == (1,)
        assert len(g.input_ids) == 2

    def test_arity_checked(self):
        g = Graph()
        i = g.add(Input((4,)))
        with pytest.raises(GraphError):
            g.add(Dense(4, 2), (i, i))

    def test_dangling_input_rejected(self):
        g = Graph()
        g.add(Input((4,)))
        with pytest.raises(GraphError):
            g.add(Dense(4, 2), (7,))

    def test_shape_check_at_construction(self):
        g = Graph()
        i = g.add(Input((4,)))
        with pytest.raises(ValueError):
            g.add(Dense(5, 2), (i,))

    def test_set_output_validates(self):
        g = small_scn()
        with pytest.raises(GraphError):
            g.set_output(99)


class TestExecution:
    def test_forward_shapes(self, rng):
        g = small_scn()
        q = rng.normal(0, 1, (5, 8)).astype(np.float32)
        d = rng.normal(0, 1, (5, 8)).astype(np.float32)
        out = g.forward({0: q, 1: d})
        assert out.shape == (5, 1)
        assert np.all((out > 0) & (out < 1))

    def test_identical_inputs_score_high(self, rng):
        # absdiff(x, x) = 0, so the score is the bias path -> deterministic
        g = small_scn()
        x = rng.normal(0, 1, (3, 8)).astype(np.float32)
        s_same = g.forward({0: x, 1: x})
        assert np.allclose(s_same, s_same[0])

    def test_missing_feed(self, rng):
        g = small_scn()
        with pytest.raises(GraphError):
            g.forward({0: rng.normal(0, 1, (2, 8)).astype(np.float32)})

    def test_batch_mismatch(self, rng):
        g = small_scn()
        with pytest.raises(GraphError):
            g.forward(
                {
                    0: rng.normal(0, 1, (2, 8)).astype(np.float32),
                    1: rng.normal(0, 1, (3, 8)).astype(np.float32),
                }
            )

    def test_feed_shape_mismatch(self, rng):
        g = small_scn()
        with pytest.raises(GraphError):
            g.forward(
                {
                    0: rng.normal(0, 1, (2, 9)).astype(np.float32),
                    1: rng.normal(0, 1, (2, 8)).astype(np.float32),
                }
            )

    def test_deterministic_given_seed(self, rng):
        g1, g2 = small_scn(seed=7), small_scn(seed=7)
        q = rng.normal(0, 1, (4, 8)).astype(np.float32)
        d = rng.normal(0, 1, (4, 8)).astype(np.float32)
        np.testing.assert_array_equal(
            g1.forward({0: q, 1: d}), g2.forward({0: q, 1: d})
        )

    def test_backward_requires_kept_activations(self, rng):
        g = small_scn()
        g.forward(
            {0: rng.normal(0, 1, (2, 8)).astype(np.float32),
             1: rng.normal(0, 1, (2, 8)).astype(np.float32)}
        )
        g._last_activations = None
        with pytest.raises(GraphError):
            g.backward(np.ones((2, 1), dtype=np.float32))


class TestAccounting:
    def test_total_flops_sums_layers(self):
        g = small_scn()
        stats = g.layer_stats()
        assert g.total_flops() == sum(s.flops for s in stats)

    def test_parameter_count(self):
        g = small_scn()
        # dense 8->4 (36) + dense 4->1 (5)
        assert g.parameter_count() == 41
        assert g.weight_bytes() == 164

    def test_count_layers(self):
        counts = small_scn().count_layers()
        assert counts == {"conv": 0, "fc": 2, "elementwise": 1}

    def test_layer_stats_exclude_inputs(self):
        g = small_scn()
        assert all(s.op_name != "Input" for s in g.layer_stats())

    def test_summary_mentions_layers(self):
        text = small_scn().summary()
        assert "Dense" in text and "Elementwise" in text

    def test_weight_bytes_fp32(self):
        g = small_scn()
        stats = [s for s in g.layer_stats() if s.weight_params]
        assert all(s.weight_bytes == 4 * s.weight_params for s in stats)


class TestInitialization:
    def test_initialize_is_deterministic(self):
        g = small_scn(seed=3)
        w1 = {k: {n: v.copy() for n, v in p.items()} for k, p in g.params.items()}
        g.initialize(seed=3)
        for node_id, params in g.params.items():
            for name, tensor in params.items():
                np.testing.assert_array_equal(tensor, w1[node_id][name])

    def test_different_seed_different_weights(self):
        g1, g2 = small_scn(seed=1), small_scn(seed=2)
        some = next(iter(g1.params))
        assert not np.array_equal(g1.params[some]["W"], g2.params[some]["W"])
