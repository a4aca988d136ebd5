"""DAG computation graph with numpy execution.

A :class:`Graph` is an ordered list of :class:`Node` records, each binding
an :class:`~repro.nn.layers.Op` to its input nodes.  Nodes are appended in
topological order (the builder enforces this), so forward execution is a
single pass and backward is the reverse pass.

The graph carries its own parameter store (``node id -> {name: array}``)
and a summary API (:meth:`Graph.summary`) that aggregates FLOPs, MACs, and
weight bytes per layer class — this is what Table-1 calibration and the
systolic/energy models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.nn.layers import (
    Activation,
    Conv2D,
    Dense,
    Dot,
    Elementwise,
    Input,
    Op,
    Params,
    Shape,
)


@dataclass
class Node:
    """One operator instance in the graph."""

    node_id: int
    op: Op
    inputs: Tuple[int, ...]
    name: str = ""


@dataclass
class LayerStats:
    """Shape/cost record for one node, used by simulators."""

    node_id: int
    op_name: str
    name: str
    input_shapes: Tuple[Shape, ...]
    output_shape: Shape
    flops: int
    macs: int
    weight_params: int
    #: bytes per weight scalar (4 = fp32 default; narrower after
    #: quantization, see repro.nn.quantization)
    dtype_bytes: int = 4

    @property
    def weight_bytes(self) -> int:
        """Total parameter bytes at the graph's (or a given) dtype width."""
        return self.weight_params * self.dtype_bytes


class GraphError(ValueError):
    """Raised for malformed graphs (bad wiring, shape mismatches)."""


class Graph:
    """A topologically ordered DAG of ops with a parameter store."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: List[Node] = []
        self.params: Dict[int, Params] = {}
        self._shapes: Dict[int, Shape] = {}
        #: per node, how many node inputs read it (counted as nodes are added)
        self._consumers: List[int] = []
        self.output_id: Optional[int] = None
        #: bytes per stored weight scalar (set by quantization)
        self.dtype_bytes: int = 4
        #: arithmetic precision label consumed by the hardware models
        self.precision: str = "fp32"

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, op: Op, inputs: Sequence[int] = (), name: str = "") -> int:
        """Append an op; returns its node id."""
        inputs = tuple(int(i) for i in inputs)
        if len(inputs) != op.arity:
            raise GraphError(
                f"{type(op).__name__} expects {op.arity} inputs, got {len(inputs)}"
            )
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise GraphError(f"input node {i} does not exist yet")
        node_id = len(self.nodes)
        node = Node(node_id=node_id, op=op, inputs=inputs, name=name or f"n{node_id}")
        # Shape-check eagerly so construction errors surface immediately.
        in_shapes = tuple(self._shapes[i] for i in inputs)
        self._shapes[node_id] = op.output_shape(*in_shapes)
        self.nodes.append(node)
        self._consumers.append(0)
        for i in inputs:
            self._consumers[i] += 1
        self.output_id = node_id
        return node_id

    def set_output(self, node_id: int) -> None:
        """Mark an existing node as the graph output."""
        if not 0 <= node_id < len(self.nodes):
            raise GraphError(f"no node {node_id}")
        self.output_id = node_id

    @property
    def input_ids(self) -> List[int]:
        return [n.node_id for n in self.nodes if isinstance(n.op, Input)]

    def shape_of(self, node_id: int) -> Shape:
        """Per-sample output shape of a node."""
        return self._shapes[node_id]

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def initialize(self, seed: int = 0) -> None:
        """(Re-)initialize every parameterized node deterministically."""
        rng = np.random.default_rng(seed)
        self.params = {}
        for node in self.nodes:
            p = node.op.init_params(rng)
            if p:
                self.params[node.node_id] = p

    def parameter_count(self) -> int:
        """Total trainable scalars across all layers."""
        return sum(node.op.weight_params() for node in self.nodes)

    def weight_bytes(self, dtype_bytes: Optional[int] = None) -> int:
        """Total parameter bytes at the graph's (or a given) dtype width."""
        if dtype_bytes is None:
            dtype_bytes = self.dtype_bytes
        return self.parameter_count() * dtype_bytes

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward(
        self,
        feeds: Dict[int, np.ndarray],
        keep_activations: bool = False,
    ) -> np.ndarray:
        """Execute the graph on batched ``feeds`` (``input id -> array``).

        Returns the output-node activation.  With ``keep_activations`` the
        full activation dict is stashed on ``self._last_activations`` for a
        subsequent :meth:`backward` call.

        Without it the pass is inference-only and owns its buffers: each
        activation is dropped after its last consumer, and an
        :class:`~repro.nn.layers.Activation` overwrites its input when
        this pass allocated that buffer and reads it no more.  A feed is
        never written (a scan feeds views of the database), nor is a
        buffer another node's output aliases (``Flatten`` views,
        ``identity``).  The values are those of the training pass.
        """
        if self.output_id is None:
            raise GraphError("graph has no nodes")
        missing = [i for i in self.input_ids if i not in feeds]
        if missing:
            raise GraphError(f"missing feeds for input nodes {missing}")
        batch_sizes = {feeds[i].shape[0] for i in self.input_ids}
        if len(batch_sizes) != 1:
            raise GraphError(f"inconsistent batch sizes {batch_sizes}")
        acts: Dict[int, np.ndarray] = {}
        uses = list(self._consumers)
        uses[self.output_id] += 1
        #: nodes whose buffer this pass allocated and no other node aliases
        owned: Set[int] = set()
        for node in self.nodes:
            if isinstance(node.op, Input):
                fed = np.asarray(feeds[node.node_id], dtype=np.float32)
                expected = self._shapes[node.node_id]
                if tuple(fed.shape[1:]) != expected:
                    raise GraphError(
                        f"feed for {node.name} has shape {fed.shape[1:]}, "
                        f"expected {expected}"
                    )
                acts[node.node_id] = fed
                continue
            args = [acts[i] for i in node.inputs]
            params = self.params.get(node.node_id, {})
            if keep_activations:
                acts[node.node_id] = node.op.forward(params, *args)
                continue
            for i in node.inputs:
                uses[i] -= 1
                if uses[i] == 0:
                    del acts[i]
            src = node.inputs[0]
            if isinstance(node.op, Activation) and src in owned and uses[src] == 0:
                out = node.op.forward(params, args[0], out=args[0])
                owned.add(node.node_id)
            else:
                out = node.op.forward(params, *args)
                if any(np.may_share_memory(out, a) for a in args):
                    owned.difference_update(node.inputs)
                else:
                    owned.add(node.node_id)
            acts[node.node_id] = out
        if keep_activations:
            self._last_activations = acts
        return acts[self.output_id]

    def backward(self, grad_out: np.ndarray) -> Dict[int, Params]:
        """Backprop ``grad_out`` through the last kept forward pass.

        Returns parameter gradients keyed like :attr:`params`.  Only
        nodes with a parameterized ancestor (or parameters of their own)
        get a gradient: the rest, such as an SCN's query/feature gate,
        feed no update, so the input gradients they would receive are
        never computed.
        """
        acts = getattr(self, "_last_activations", None)
        if acts is None:
            raise GraphError("call forward(keep_activations=True) first")
        needs_grad: Set[int] = set()
        for node in self.nodes:
            if node.node_id in self.params or needs_grad.intersection(node.inputs):
                needs_grad.add(node.node_id)
        grads_act: Dict[int, np.ndarray] = {self.output_id: grad_out}
        grads_param: Dict[int, Params] = {}
        for node in reversed(self.nodes):
            if isinstance(node.op, Input) or node.node_id not in grads_act:
                continue
            g_out = grads_act.pop(node.node_id)
            params = self.params.get(node.node_id, {})
            inputs = [acts[i] for i in node.inputs]
            output = acts[node.node_id]
            wanted = bool(needs_grad.intersection(node.inputs))
            if params:
                g_params, g_inputs = node.op.backward(
                    params, inputs, output, g_out, input_grads=wanted
                )
                grads_param[node.node_id] = g_params
            elif wanted:
                _, g_inputs = node.op.backward(params, inputs, output, g_out)
            else:
                continue
            for in_id, g in zip(node.inputs, g_inputs):
                if in_id not in needs_grad:
                    continue
                if in_id in grads_act:
                    grads_act[in_id] = grads_act[in_id] + g
                else:
                    grads_act[in_id] = g
        return grads_param

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def layer_stats(self) -> List[LayerStats]:
        """Per-node shape/cost records (Input nodes excluded)."""
        stats = []
        for node in self.nodes:
            if isinstance(node.op, Input):
                continue
            in_shapes = tuple(self._shapes[i] for i in node.inputs)
            stats.append(
                LayerStats(
                    node_id=node.node_id,
                    op_name=type(node.op).__name__,
                    name=node.name,
                    input_shapes=in_shapes,
                    output_shape=self._shapes[node.node_id],
                    flops=node.op.flops(*in_shapes),
                    macs=node.op.macs(*in_shapes),
                    weight_params=node.op.weight_params(),
                    dtype_bytes=self.dtype_bytes,
                )
            )
        return stats

    def total_flops(self) -> int:
        """Per-sample FLOPs summed over all layers (MAC = 2 FLOPs)."""
        return sum(s.flops for s in self.layer_stats())

    def count_layers(self) -> Dict[str, int]:
        """Layer-class counts in Table-1 terms (conv / fc / elementwise)."""
        counts = {"conv": 0, "fc": 0, "elementwise": 0}
        for node in self.nodes:
            if isinstance(node.op, Conv2D):
                counts["conv"] += 1
            elif isinstance(node.op, Dense):
                counts["fc"] += 1
            elif isinstance(node.op, (Elementwise, Dot)):
                counts["elementwise"] += 1
        return counts

    def summary(self) -> str:
        """Human-readable layer table."""
        lines = [f"Graph {self.name!r}: {self.parameter_count()} params, "
                 f"{self.total_flops()} FLOPs/sample"]
        for s in self.layer_stats():
            lines.append(
                f"  {s.name:<16} {s.op_name:<12} out={s.output_shape} "
                f"flops={s.flops:>10} params={s.weight_params:>9}"
            )
        return "\n".join(lines)


class GraphBuilder:
    """Fluent helper for the common two-branch SCN topology.

    >>> b = GraphBuilder("scn")
    >>> q = b.input((512,), "qfv")
    >>> d = b.input((512,), "dfv")
    >>> h = b.elementwise(q, d, "absdiff")
    >>> h = b.dense(h, 128, activation="relu")
    >>> out = b.dense(h, 1, activation="sigmoid")
    >>> g = b.build()
    >>> g.shape_of(g.output_id)
    (1,)
    """

    def __init__(self, name: str = "graph"):
        self.graph = Graph(name)

    def input(self, shape: Sequence[int], name: str = "") -> int:
        """Add an Input placeholder; returns its node id."""
        return self.graph.add(Input(shape), (), name=name)

    def dense(
        self, src: int, out_features: int, activation: str = "identity",
        bias: bool = True, name: str = "",
    ) -> int:
        """Add a Dense layer (with optional activation) after `src`."""
        in_features = int(np.prod(self.graph.shape_of(src)))
        nid = self.graph.add(
            Dense(in_features, out_features, bias=bias), (src,), name=name
        )
        if activation != "identity":
            nid = self.graph.add(Activation(activation), (nid,))
        return nid

    def conv2d(
        self, src: int, out_channels: int, kernel: int, stride: int = 1,
        padding: int = 0, activation: str = "identity", name: str = "",
    ) -> int:
        """Add a Conv2D layer (with optional activation) after `src`."""
        in_shape = self.graph.shape_of(src)
        nid = self.graph.add(
            Conv2D(in_shape[0], out_channels, kernel, stride, padding),
            (src,), name=name,
        )
        if activation != "identity":
            nid = self.graph.add(Activation(activation), (nid,))
        return nid

    def elementwise(self, a: int, b: int, kind: str = "absdiff", name: str = "") -> int:
        """Add a binary element-wise op over two nodes."""
        return self.graph.add(Elementwise(kind), (a, b), name=name)

    def dot(self, a: int, b: int, name: str = "") -> int:
        """Add a batched inner product of two nodes."""
        return self.graph.add(Dot(), (a, b), name=name)

    def concat(self, a: int, b: int, name: str = "") -> int:
        """Concatenate two nodes along the feature axis."""
        from repro.nn.layers import Concat

        return self.graph.add(Concat(), (a, b), name=name)

    def flatten(self, src: int, name: str = "") -> int:
        """Flatten a node to a 1-D feature vector."""
        from repro.nn.layers import Flatten

        return self.graph.add(Flatten(), (src,), name=name)

    def activation(self, src: int, kind: str, name: str = "") -> int:
        """Add a pointwise nonlinearity after `src`."""
        return self.graph.add(Activation(kind), (src,), name=name)

    def score_head(
        self, src: int, kind: str = "sigmoid", affine: bool = False, name: str = ""
    ) -> int:
        """Add the similarity score head (see layers.ScoreHead)."""
        from repro.nn.layers import ScoreHead

        return self.graph.add(ScoreHead(kind, affine=affine), (src,), name=name)

    def build(self, output: Optional[int] = None, seed: int = 0) -> Graph:
        """Finalize: set the output, initialize parameters, return the graph."""
        if output is not None:
            self.graph.set_output(output)
        self.graph.initialize(seed=seed)
        return self.graph
