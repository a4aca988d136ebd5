"""Analytic cycle model for a rectangular systolic array.

The model follows SCALE-Sim's tile accounting.  A GEMM of output ``M x N``
with reduction depth ``K`` is tiled over an ``R x C`` array:

* **output stationary (OS)** — each tile computes an ``r x c`` block of
  outputs (``r <= R``, ``c <= C``); the tile streams for ``K`` cycles plus a
  skew fill/drain of ``r + c - 2`` cycles.  Used by the SSD- and
  channel-level accelerators (paper Table 3).
* **weight stationary (WS)** — each tile pins an ``r x c`` block of the
  ``K x N`` weight matrix (``r`` rows of reduction, ``c`` output columns);
  loading takes ``r`` cycles, then ``m`` input rows stream through with a
  ``c - 1`` drain.  Used by the chip-level accelerators, which stream a
  small batch of feature vectors past each pinned weight tile.
* **element-wise** — the paper's modification adds an input line per row,
  so element-wise ops sustain ``R`` elements/cycle.

The model also counts scratchpad/DRAM word traffic per layer using the
standard per-dataflow reuse factors; the energy model turns those counts
into joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

VALID_DATAFLOWS = ("OS", "WS")


@dataclass(frozen=True)
class SystolicConfig:
    """Shape and clocking of one systolic array."""

    rows: int
    cols: int
    frequency_hz: float = 800e6
    dataflow: str = "OS"
    #: feature vectors streamed per pinned weight tile (WS only).  Small in
    #: hardware because the chip-level accelerator's input buffer is tiny
    #: and weight scheduling is lock-stepped by the channel accelerator
    #: (paper 4.5); this overhead is why the chip level is compute-limited.
    ws_stream_batch: int = 8
    #: maximum reduction fold across idle rows (the drain network supports
    #: a bounded partial-sum reduction per column)
    max_fold: int = 4
    #: MACs one PE completes per cycle (1 for fp32; 2/4 for the fp16/int8
    #: extension of repro.nn.quantization)
    ops_per_pe: int = 1

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"invalid array shape {self.rows}x{self.cols}")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.dataflow not in VALID_DATAFLOWS:
            raise ValueError(f"dataflow must be one of {VALID_DATAFLOWS}")
        if self.ws_stream_batch <= 0:
            raise ValueError("ws_stream_batch must be positive")
        if self.ops_per_pe not in (1, 2, 4):
            raise ValueError("ops_per_pe must be 1, 2 or 4")

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds at this clock."""
        return cycles / self.frequency_hz


@dataclass
class AccessCounts:
    """Word-level traffic counts for the energy model (fp32 words)."""

    sram_reads: float = 0.0
    sram_writes: float = 0.0
    weight_words_streamed: float = 0.0  # from next memory level (L2/DRAM)

    def __add__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(
            self.sram_reads + other.sram_reads,
            self.sram_writes + other.sram_writes,
            self.weight_words_streamed + other.weight_words_streamed,
        )

    def scaled(self, factor: float) -> "AccessCounts":
        """These counts multiplied by a scalar factor."""
        return AccessCounts(
            self.sram_reads * factor,
            self.sram_writes * factor,
            self.weight_words_streamed * factor,
        )


@dataclass
class LayerProfile:
    """Cycle/traffic profile of one layer execution on one array."""

    name: str
    kind: str  # "gemm" | "elementwise"
    cycles: float
    macs: float
    batch: int  # feature vectors amortized over these cycles
    accesses: AccessCounts = field(default_factory=AccessCounts)

    def utilization(self, num_pes: int) -> float:
        """Achieved MACs per PE-cycle over this layer's execution."""
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.macs / (self.cycles * num_pes))


class SystolicArray:
    """Cycle/traffic estimator for one array configuration."""

    def __init__(self, config: SystolicConfig):
        self.config = config

    # ------------------------------------------------------------------
    # GEMM kernels
    # ------------------------------------------------------------------
    def gemm_cycles(self, m: int, n: int, k: int) -> float:
        """Cycles for an ``m x n`` output GEMM with reduction ``k``."""
        if min(m, n, k) <= 0:
            raise ValueError(f"invalid GEMM dims m={m} n={n} k={k}")
        if self.config.dataflow == "OS":
            return self._os_gemm_cycles(m, n, k)
        return self._ws_gemm_cycles(m, n, k)

    def _os_gemm_cycles(self, m: int, n: int, k: int) -> float:
        r, c = self.config.rows, self.config.cols
        tiles_m = math.ceil(m / r)
        tiles_n = math.ceil(n / c)
        # When the output has fewer rows than the array (the common case
        # here: the SCN processes ONE feature vector at a time, so FC
        # layers have m = 1), idle rows fold the reduction dimension —
        # each column's output is accumulated by groups of rows working
        # on disjoint slices of K, merged by the drain network.  The fold
        # is bounded (max_fold) by the per-column partial-sum reduction
        # the drain network supports; this is why Fig. 6's FC curve
        # saturates instead of scaling with the full PE count.
        rows_used = min(m, r)
        max_fold = 1
        if tiles_m == 1:
            max_fold = min(self.config.max_fold, max(1, r // rows_used))

        def per_tile(fold: int) -> float:
            k_eff = math.ceil(k / (fold * self.config.ops_per_pe))
            # Skew fill/drain spans the occupied extent of the array.
            fill = min(rows_used * fold, r) + min(n, c) - 2
            return k_eff + fill + 1

        # Folding trades a longer fill skew for a shorter reduction, so
        # it only pays when K is large; taking the cheapest allowed fold
        # keeps the estimate monotone in every GEMM dimension (min over
        # a shrinking family of non-decreasing functions).
        best = min(per_tile(fold) for fold in range(1, max_fold + 1))
        return tiles_m * tiles_n * best

    def _ws_gemm_cycles(self, m: int, n: int, k: int) -> float:
        r, c = self.config.rows, self.config.cols
        b = min(m, self.config.ws_stream_batch)
        tiles_k = math.ceil(k / r)
        tiles_n = math.ceil(n / c)
        passes = math.ceil(m / b)
        # Per pinned tile per pass: r cycles to load weights, b input rows
        # streamed (narrow precisions stream ops_per_pe elements/cycle),
        # c-1 drain for the last row's partial sums.
        stream = math.ceil(b / self.config.ops_per_pe)
        per_tile_pass = min(k, r) + stream + min(n, c) - 1
        return tiles_k * tiles_n * passes * per_tile_pass

    def elementwise_cycles(self, size: int) -> float:
        """Element-wise op cycles with the per-row input-line extension."""
        if size <= 0:
            raise ValueError(f"invalid elementwise size {size}")
        lanes = self.config.rows * self.config.ops_per_pe
        return math.ceil(size / lanes) + 2  # +2 pipeline in/out

    # ------------------------------------------------------------------
    # traffic counts
    # ------------------------------------------------------------------
    def gemm_accesses(self, m: int, n: int, k: int) -> AccessCounts:
        """Scratchpad word traffic for one GEMM (reuse per dataflow)."""
        r, c = self.config.rows, self.config.cols
        if self.config.dataflow == "OS":
            # Inputs re-read once per N-tile strip; weights once per M-tile.
            input_reads = m * k * math.ceil(n / c)
            weight_reads = k * n * math.ceil(m / r)
            output_writes = m * n
            return AccessCounts(
                sram_reads=input_reads + weight_reads,
                sram_writes=output_writes,
            )
        b = min(m, self.config.ws_stream_batch)
        input_reads = m * k * math.ceil(n / c)
        weight_reads = k * n * math.ceil(m / b)  # reloaded per stream pass
        # Partial sums spill once per K-tile beyond the first.
        output_writes = m * n * math.ceil(k / r)
        return AccessCounts(
            sram_reads=input_reads + weight_reads,
            sram_writes=output_writes,
        )

    def elementwise_accesses(self, size: int) -> AccessCounts:
        """Scratchpad word traffic of one element-wise op."""
        return AccessCounts(sram_reads=2 * size, sram_writes=size)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------


def best_aspect_ratio(
    num_pes: int,
    m: int,
    n: int,
    k: int,
    dataflow: str = "OS",
) -> tuple[SystolicConfig, float]:
    """Search all ``R x C = num_pes`` factorizations for the fastest GEMM.

    Used by the design-space exploration of paper Fig. 6 ("at each point,
    the aspect ratio with the fastest performance is considered").
    """
    if num_pes <= 0:
        raise ValueError("num_pes must be positive")
    best: Optional[tuple[SystolicConfig, float]] = None
    for rows in range(1, num_pes + 1):
        if num_pes % rows:
            continue
        cols = num_pes // rows
        cfg = SystolicConfig(rows=rows, cols=cols, dataflow=dataflow)
        cycles = SystolicArray(cfg).gemm_cycles(m, n, k)
        if best is None or cycles < best[1]:
            best = (cfg, cycles)
    assert best is not None
    return best
