"""Design-space exploration (paper §4.5, Fig. 6, Table 3).

Two explorations drive DeepStore's accelerator sizing:

* :func:`explore_pe_scaling` — vary the PE count (128 to 32 K) with the
  best aspect ratio at each point and unbounded memory bandwidth, for the
  largest convolutional and fully-connected layers in the studied
  applications.  Fig. 6 shows FC saturating around 512 PEs and ConvD
  around 1024 PEs.
* :func:`search_configurations` — enumerate array shapes and scratchpad
  sizes, estimate per-accelerator power with the energy model, keep
  designs within the level's power budget, and rank by performance over
  the five applications.  This is the procedure that justifies Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.placement import AcceleratorPlacement
from repro.energy import EnergyModel
from repro.ssd.timing import SsdConfig
from repro.systolic import (
    GraphMapper,
    ScratchpadHierarchy,
    ScratchpadLevel,
    SystolicArray,
    SystolicConfig,
)
from repro.systolic.array import best_aspect_ratio
from repro.workloads.apps import ALL_APPS

#: the largest ConvD layer among the studied apps (ReId conv1: 1024
#: output pixels, 16 output channels, K = 11*3*3)
LARGEST_CONV = (1024, 16, 99)
#: the largest FC layer shape quoted by the paper (TIR: 512 x 512), with
#: one feature vector in flight (m = 1)
LARGEST_FC = (1, 512, 512)


@dataclass(frozen=True)
class DesignPoint:
    """One point of the Fig. 6 sweep."""

    num_pes: int
    rows: int
    cols: int
    cycles: float
    speedup: float


def explore_pe_scaling(
    layer: str = "fc",
    pe_counts: Sequence[int] = (128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768),
    dims: Optional[Tuple[int, int, int]] = None,
) -> List[DesignPoint]:
    """Speedup vs PE count at the best aspect ratio (Fig. 6)."""
    if layer not in ("fc", "conv") and dims is None:
        raise ValueError("layer must be 'fc' or 'conv' (or pass dims)")
    m, n, k = dims or (LARGEST_FC if layer == "fc" else LARGEST_CONV)
    points: List[DesignPoint] = []
    base_cycles: Optional[float] = None
    for pes in pe_counts:
        cfg, cycles = best_aspect_ratio(pes, m, n, k, dataflow="OS")
        if base_cycles is None:
            base_cycles = cycles
        points.append(
            DesignPoint(
                num_pes=pes,
                rows=cfg.rows,
                cols=cfg.cols,
                cycles=cycles,
                speedup=base_cycles / cycles,
            )
        )
    return points


@dataclass
class ConfigCandidate:
    """One evaluated accelerator configuration."""

    systolic: SystolicConfig
    scratchpad_bytes: int
    mean_seconds_per_feature: float
    power_w: float
    feasible: bool


def search_configurations(
    level: str,
    power_budget_w: float,
    ssd: Optional[SsdConfig] = None,
    pe_options: Sequence[Tuple[int, int]] = (
        (4, 32), (8, 32), (8, 64), (16, 64), (16, 128), (32, 64), (32, 128),
    ),
    scratchpad_options: Sequence[int] = (256 * 1024, 512 * 1024, 8 * 1024 * 1024),
    frequency_hz: float = 800e6,
    dataflow: str = "OS",
) -> List[ConfigCandidate]:
    """Enumerate configurations, mark power feasibility, rank by speed.

    Power is the energy model's average over the five applications at the
    configuration's own steady-state rate; the returned list is sorted
    with feasible candidates first, fastest first — the paper's Table-3
    design is the head of the feasible list under each level's budget.
    """
    if power_budget_w <= 0:
        raise ValueError("power budget must be positive")
    ssd = ssd or SsdConfig()
    energy_model = EnergyModel()
    candidates: List[ConfigCandidate] = []
    for rows, cols in pe_options:
        for sp_bytes in scratchpad_options:
            systolic = SystolicConfig(
                rows=rows, cols=cols, frequency_hz=frequency_hz, dataflow=dataflow
            )
            hierarchy = ScratchpadHierarchy(
                ScratchpadLevel(
                    name=f"{level}-l1",
                    size_bytes=sp_bytes,
                    bandwidth_bytes_per_s=4 * frequency_hz * (rows + cols),
                ),
                dram=ScratchpadLevel(
                    name="dram",
                    size_bytes=ssd.dram_bytes,
                    bandwidth_bytes_per_s=ssd.dram_bandwidth,
                ),
            )
            mapper = GraphMapper(SystolicArray(systolic), hierarchy)
            total_spf, total_power, supported = 0.0, 0.0, 0
            for app in ALL_APPS.values():
                graph = app.build_scn()
                profile = mapper.map_graph(graph)
                # the accelerator can never stream features faster than
                # its flash feed, so power is assessed at the real rate
                feed_spf = app.feature_bytes / ssd.timing.channel_bandwidth
                spf = max(profile.seconds_per_feature, feed_spf)
                power = energy_model.accelerator_power_w(
                    profile,
                    scratchpad_bytes=sp_bytes,
                    seconds_per_feature=spf,
                    include_dram=False,
                )
                total_spf += spf
                total_power = max(total_power, power)
                supported += 1
            mean_spf = total_spf / supported
            candidates.append(
                ConfigCandidate(
                    systolic=systolic,
                    scratchpad_bytes=sp_bytes,
                    mean_seconds_per_feature=mean_spf,
                    power_w=total_power,
                    feasible=total_power <= power_budget_w,
                )
            )
    candidates.sort(key=lambda c: (not c.feasible, c.mean_seconds_per_feature))
    return candidates


def validate_placement_power(
    placement: AcceleratorPlacement, ssd: Optional[SsdConfig] = None
) -> Dict[str, float]:
    """Per-app average power of a Table-3 placement (tests assert these
    stay within the level's budget)."""
    ssd = ssd or SsdConfig()
    energy_model = EnergyModel()
    mapper = GraphMapper(placement.build_array(), placement.build_hierarchy(ssd))
    result: Dict[str, float] = {}
    for app in ALL_APPS.values():
        graph = app.build_scn()
        if not placement.supports(graph):
            continue
        profile = mapper.map_graph(graph)
        feed_spf = app.feature_bytes / ssd.timing.channel_bandwidth
        result[app.name] = energy_model.accelerator_power_w(
            profile,
            scratchpad_bytes=placement.scratchpad_bytes,
            seconds_per_feature=max(profile.seconds_per_feature, feed_spf),
            sram_model=placement.sram_model,
            area_mm2=placement.area_mm2,
            include_dram=False,
        )
    return result
