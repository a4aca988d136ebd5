"""Property-based tests over randomly generated models and inputs.

Hypothesis drives structural invariants that example-based tests cannot
sweep: arbitrary two-branch MLPs must serialize losslessly, account
consistently, map onto any array shape, and keep the simulators' basic
inequalities intact.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import GraphBuilder, graph_from_bytes, graph_to_bytes
from repro.nn.quantization import quantize_graph
from repro.systolic import (
    GraphMapper,
    ScratchpadHierarchy,
    ScratchpadLevel,
    SystolicArray,
    SystolicConfig,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
dims = st.integers(min_value=2, max_value=48)
layer_widths = st.lists(st.integers(min_value=2, max_value=64),
                        min_size=1, max_size=3)
merge_kinds = st.sampled_from(["absdiff", "mul", "sub", "add", "concat"])
activations = st.sampled_from(["relu", "tanh", "identity"])


@st.composite
def two_branch_graphs(draw):
    """A random two-branch SCN-shaped graph."""
    dim = draw(dims)
    merge = draw(merge_kinds)
    widths = draw(layer_widths)
    act = draw(activations)
    seed = draw(st.integers(min_value=0, max_value=2**16))

    b = GraphBuilder("prop")
    q = b.input((dim,), "qfv")
    d = b.input((dim,), "dfv")
    if merge == "concat":
        h = b.concat(q, d)
    else:
        h = b.elementwise(q, d, merge)
    for width in widths:
        h = b.dense(h, width, activation=act)
    h = b.dense(h, 1)
    out = b.score_head(h, "sigmoid")
    return b.build(out, seed=seed), dim


def feeds_for(graph, dim, batch, seed=0):
    rng = np.random.default_rng(seed)
    q_id, d_id = graph.input_ids
    return {
        q_id: rng.normal(0, 1, (batch, dim)).astype(np.float32),
        d_id: rng.normal(0, 1, (batch, dim)).astype(np.float32),
    }


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
class TestSerializationProperties:
    @given(two_branch_graphs())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_is_lossless(self, graph_and_dim):
        graph, dim = graph_and_dim
        restored = graph_from_bytes(graph_to_bytes(graph))
        feeds = feeds_for(graph, dim, batch=3)
        np.testing.assert_allclose(
            graph.forward(feeds), restored.forward(feeds), rtol=1e-6
        )
        assert restored.total_flops() == graph.total_flops()
        assert restored.parameter_count() == graph.parameter_count()

    @given(two_branch_graphs())
    @settings(max_examples=20, deadline=None)
    def test_outputs_are_probabilities(self, graph_and_dim):
        graph, dim = graph_and_dim
        out = graph.forward(feeds_for(graph, dim, batch=5))
        assert out.shape == (5, 1)
        assert np.all((out >= 0) & (out <= 1))
        assert np.all(np.isfinite(out))


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
class TestAccountingProperties:
    @given(two_branch_graphs())
    @settings(max_examples=30, deadline=None)
    def test_flops_at_least_twice_macs(self, graph_and_dim):
        graph, _ = graph_and_dim
        assert graph.total_flops() >= 2 * sum(s.macs for s in graph.layer_stats())

    @given(two_branch_graphs())
    @settings(max_examples=30, deadline=None)
    def test_quantization_shrinks_bytes_preserves_flops(self, graph_and_dim):
        graph, dim = graph_and_dim
        q = quantize_graph(graph, "int8")
        assert q.weight_bytes() * 4 <= graph.weight_bytes() + 3 * 4
        assert q.total_flops() == graph.total_flops()
        out_a = graph.forward(feeds_for(graph, dim, 2))
        out_b = q.forward(feeds_for(graph, dim, 2))
        # fake quantization perturbs scores only mildly
        assert np.max(np.abs(out_a - out_b)) < 0.5


# ----------------------------------------------------------------------
# mapping
# ----------------------------------------------------------------------
def make_mapper(rows, cols):
    l1 = ScratchpadLevel("l1", 512 * 1024, 1e12)
    dram = ScratchpadLevel("dram", 4 * 1024**3, 20e9)
    return GraphMapper(
        SystolicArray(SystolicConfig(rows=rows, cols=cols)),
        ScratchpadHierarchy(l1, dram=dram),
    )


class TestMappingProperties:
    @given(
        two_branch_graphs(),
        st.sampled_from([(4, 16), (16, 64), (32, 64), (8, 128)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_graph_maps_onto_any_array(self, graph_and_dim, shape):
        graph, _ = graph_and_dim
        profile = make_mapper(*shape).map_graph(graph)
        assert profile.seconds_per_feature > 0
        assert profile.macs_per_feature > 0
        assert 0 < profile.utilization(shape[0] * shape[1], 800e6) <= 1.0

    @given(two_branch_graphs())
    @settings(max_examples=20, deadline=None)
    def test_bigger_arrays_never_slower(self, graph_and_dim):
        graph, _ = graph_and_dim
        small = make_mapper(8, 32).map_graph(graph).compute_seconds_per_feature
        large = make_mapper(32, 128).map_graph(graph).compute_seconds_per_feature
        assert large <= small * 1.35  # fill overheads allow slight regressions

    @given(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=1024),
    )
    @settings(max_examples=80, deadline=None)
    def test_gemm_cycles_monotone_in_each_dim(self, m, n, k):
        arr = SystolicArray(SystolicConfig(rows=16, cols=64))
        base = arr.gemm_cycles(m, n, k)
        assert arr.gemm_cycles(m + 8, n, k) >= base * 0.999
        assert arr.gemm_cycles(m, n + 8, k) >= base * 0.999
        assert arr.gemm_cycles(m, n, k + 8) >= base * 0.999

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_elementwise_cycles_linear_bound(self, size):
        arr = SystolicArray(SystolicConfig(rows=16, cols=64))
        cycles = arr.elementwise_cycles(size)
        assert size / 16 <= cycles <= size / 16 + 3
