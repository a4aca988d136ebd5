"""Graph-to-array mapping.

:class:`GraphMapper` lowers an SCN/QCN :class:`~repro.nn.graph.Graph` onto
one systolic array + scratchpad hierarchy and produces a
:class:`GraphProfile`: the steady-state per-feature execution time, the
access counts the energy model needs, and the one-time per-query setup
cost (loading resident weights).

Mapping rules (paper §4.3/§4.5):

* **Dense** layers batch `dfv_batch` database feature vectors along the
  GEMM ``M`` dimension — the SCN compares one query against many DFVs, so
  independent DFVs fill the array's rows and amortize weight streaming.
* **Conv2D** layers map output pixels to ``M`` per feature (spatial reuse
  exists within one feature map, so DFVs are not batched).
* **Element-wise / Dot** layers use the per-row input-line extension at
  ``rows`` elements per cycle.
* Layers whose weights do not fit the L1 scratchpad stream them from the
  next level once per DFV batch; streaming overlaps compute, so each
  layer costs ``max(compute, weight_stream)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.nn.graph import Graph, LayerStats
from repro.systolic.array import AccessCounts, LayerProfile, SystolicArray
from repro.systolic.scratchpad import ResidencyPlan, ScratchpadHierarchy

_GEMM_OPS = ("Dense", "Conv2D")
_EW_OPS = ("Elementwise", "Dot")
_FREE_OPS = ("Activation", "Concat", "Flatten", "ScoreHead", "Input")


@dataclass
class MappedLayer:
    """One layer's steady-state costs on the target accelerator."""

    profile: LayerProfile
    residency: Optional[ResidencyPlan]
    compute_seconds_per_feature: float
    stream_seconds_per_feature: float
    stream_level_name: str = ""

    @property
    def seconds_per_feature(self) -> float:
        """Streaming overlaps compute; the layer runs at the slower rate."""
        return max(self.compute_seconds_per_feature, self.stream_seconds_per_feature)

    @property
    def bound(self) -> str:
        return (
            "weight-stream"
            if self.stream_seconds_per_feature > self.compute_seconds_per_feature
            else "compute"
        )


@dataclass
class GraphProfile:
    """Whole-graph steady-state profile for one accelerator."""

    graph_name: str
    layers: List[MappedLayer] = field(default_factory=list)
    dfv_batch: int = 1
    query_setup_seconds: float = 0.0

    @property
    def seconds_per_feature(self) -> float:
        return sum(layer.seconds_per_feature for layer in self.layers)

    @property
    def compute_seconds_per_feature(self) -> float:
        return sum(layer.compute_seconds_per_feature for layer in self.layers)

    @property
    def macs_per_feature(self) -> float:
        return sum(
            layer.profile.macs / max(1, layer.profile.batch) for layer in self.layers
        )

    @property
    def accesses_per_feature(self) -> AccessCounts:
        total = AccessCounts()
        for layer in self.layers:
            total = total + layer.profile.accesses.scaled(
                1.0 / max(1, layer.profile.batch)
            )
        return total

    @property
    def dram_weight_words_per_feature(self) -> float:
        return sum(
            layer.profile.accesses.weight_words_streamed / max(1, layer.profile.batch)
            for layer in self.layers
            if layer.stream_level_name == "dram"
        )

    @property
    def l2_weight_words_per_feature(self) -> float:
        return sum(
            layer.profile.accesses.weight_words_streamed / max(1, layer.profile.batch)
            for layer in self.layers
            if layer.stream_level_name not in ("", "dram")
        )

    @property
    def bound(self) -> str:
        """Which side dominates the whole graph, compute or weight stream."""
        stream = sum(layer.stream_seconds_per_feature for layer in self.layers)
        compute = self.compute_seconds_per_feature
        return "weight-stream" if stream > compute else "compute"

    def utilization(self, num_pes: int, frequency_hz: float) -> float:
        """Achieved MACs per PE-cycle across the whole graph."""
        seconds = self.seconds_per_feature
        if seconds <= 0:
            return 0.0
        return min(1.0, self.macs_per_feature / (seconds * frequency_hz * num_pes))


class GraphMapper:
    """Maps graphs onto one (array, scratchpad hierarchy) pair."""

    def __init__(
        self,
        array: SystolicArray,
        scratchpads: ScratchpadHierarchy,
        dfv_batch: Optional[int] = None,
        stream_window: int = 1,
    ):
        if stream_window <= 0:
            raise ValueError("stream_window must be positive")
        self.array = array
        self.scratchpads = scratchpads
        #: feature vectors buffered in the activation reserve while a
        #: non-resident weight stream is in flight; the stream amortizes
        #: over this window
        self.stream_window = int(stream_window)
        cfg = array.config
        if dfv_batch is None:
            # OS accelerators execute the SCN with ONE input feature
            # vector at a time (paper §4.5) — idle rows fold the reduction
            # instead of batching DFVs.  WS accelerators stream a small
            # buffered batch of features past each pinned weight tile.
            dfv_batch = 1 if cfg.dataflow == "OS" else cfg.ws_stream_batch
        if dfv_batch <= 0:
            raise ValueError("dfv_batch must be positive")
        self.dfv_batch = int(dfv_batch)

    def map_graph(self, graph: Graph) -> GraphProfile:
        """Lower a graph onto the array; returns its GraphProfile."""
        stats = graph.layer_stats()
        weighted = [(s.name, s.weight_bytes) for s in stats if s.weight_params > 0]
        plans = {p.layer_name: p for p in self.scratchpads.plan_weights(weighted)}

        profile = GraphProfile(graph_name=graph.name, dfv_batch=self.dfv_batch)
        resident_bytes = 0
        for s in stats:
            if s.op_name in _FREE_OPS and s.weight_params == 0:
                continue
            mapped = self._map_layer(s, plans.get(s.name))
            if mapped is not None:
                profile.layers.append(mapped)
            plan = plans.get(s.name)
            if plan is not None and plan.resident:
                resident_bytes += plan.weight_bytes
        profile.query_setup_seconds = self._setup_seconds(resident_bytes)
        return profile

    # ------------------------------------------------------------------
    def _map_layer(
        self, s: LayerStats, plan: Optional[ResidencyPlan]
    ) -> Optional[MappedLayer]:
        cfg = self.array.config
        if s.op_name == "Dense":
            m, n, k = self.dfv_batch, s.output_shape[0], int(_prod(s.input_shapes[0]))
            batch = self.dfv_batch
            cycles = self.array.gemm_cycles(m, n, k)
            accesses = self.array.gemm_accesses(m, n, k)
            kind = "gemm"
            macs = float(s.macs * batch)
        elif s.op_name == "Conv2D":
            out_c, out_h, out_w = s.output_shape
            in_c = s.input_shapes[0][0]
            k_dim = s.weight_params // out_c if s.weight_params else in_c
            # recover C*kh*kw exactly from macs to avoid bias miscounting
            k_dim = max(1, round(s.macs / (out_h * out_w * out_c)))
            m, n, k = out_h * out_w, out_c, k_dim
            batch = 1
            cycles = self.array.gemm_cycles(m, n, k)
            accesses = self.array.gemm_accesses(m, n, k)
            kind = "gemm"
            macs = float(s.macs)
        elif s.op_name in _EW_OPS:
            size = int(_prod(s.input_shapes[0]))
            batch = 1
            cycles = self.array.elementwise_cycles(size)
            accesses = self.array.elementwise_accesses(size)
            kind = "elementwise"
            macs = float(size)
        else:
            return None

        stream_seconds = 0.0
        stream_level = ""
        if plan is not None and not plan.resident:
            # Non-resident weights stream once per buffered feature window.
            window = batch * self.stream_window
            stream_seconds_per_batch = plan.weight_bytes / plan.stream_bandwidth
            stream_seconds = stream_seconds_per_batch / window
            stream_level = plan.stream_level.name if plan.stream_level else "dram"
            accesses = accesses + AccessCounts(
                weight_words_streamed=plan.weight_bytes / 4.0 / self.stream_window
            )

        profile = LayerProfile(
            name=s.name, kind=kind, cycles=cycles, macs=macs, batch=batch,
            accesses=accesses,
        )
        return MappedLayer(
            profile=profile,
            residency=plan,
            compute_seconds_per_feature=cfg.seconds(cycles) / batch,
            stream_seconds_per_feature=stream_seconds,
            stream_level_name=stream_level,
        )

    def _setup_seconds(self, resident_bytes: int) -> float:
        """One-time per-query load of resident weights into L1."""
        if resident_bytes == 0:
            return 0.0
        hier = self.scratchpads
        level = hier.l2 or hier.dram
        if level is None:
            return 0.0
        return resident_bytes / level.bandwidth_per_sharer


def _prod(shape) -> int:
    out = 1
    for s in shape:
        out *= int(s)
    return out
