"""Whole-device event-driven query execution.

The analytic :class:`~repro.core.deepstore.DeepStoreSystem` divides the
scan across channel accelerators and takes a steady-state max() per
channel.  This module checks that shortcut against a full discrete-event
execution: **every** channel controller, flash chip, plane, bus and
FLASH_DFV queue of the SSD simulated together, one accelerator consumer
per channel, with the query engine's merge as the closing barrier.

It is O(total pages), so it is used on scaled-down databases (tests) or
windows — but unlike the per-channel window probe it captures cross-
channel skew: the query finishes when the *slowest* stripe finishes.

With a :class:`~repro.faults.FaultInjector`, this is also the degraded-
mode execution path: NAND read-retries and CRC re-transfers stretch the
event timeline, dead chips drop their pages, and a dead channel-level
accelerator's stripe is remapped round-robin onto the surviving
channels' accelerators — the pages still stream off the dead channel's
(healthy) bus, but a survivor pays the compute, so the query completes
correctly at degraded speed.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.accelerator import InStorageAccelerator, page_compute, stream_pages
from repro.core.engine import DispatchPolicy, QueryEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultInjector
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer
from repro.core.placement import AcceleratorPlacement, CHANNEL_LEVEL
from repro.nn.graph import Graph
from repro.sim import Simulator
from repro.ssd.controller import ChannelController
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.timing import SsdConfig
from repro.ssd.trace import scan_trace_bulk, scan_traces_by_channel
from repro.workloads.apps import AppSpec


@dataclass
class EventQueryResult:
    """Measured whole-device query execution."""

    total_seconds: float
    scan_seconds: float
    per_channel_seconds: List[float]
    pages: int
    #: pages lost to hard-failed chips/planes (fault injection only)
    pages_failed: int = 0
    #: channels whose accelerator was dead and remapped away
    failed_channels: List[int] = field(default_factory=list)
    #: pages a surviving channel scanned on a dead channel's behalf
    remapped_pages: int = 0
    #: serial engine overheads; ``scan + dispatch + merge + setup`` is
    #: exactly ``total_seconds`` (same floats, same add order)
    dispatch_seconds: float = 0.0
    merge_seconds: float = 0.0
    setup_seconds: float = 0.0

    @property
    def channel_skew(self) -> float:
        """Slowest / fastest stripe completion (1.0 = perfectly even)."""
        finite = [t for t in self.per_channel_seconds if t > 0]
        if not finite:
            return 1.0
        return max(finite) / min(finite)

    @property
    def availability(self) -> float:
        """Fraction of the database's pages actually scanned."""
        if self.pages == 0:
            return 1.0
        return (self.pages - self.pages_failed) / self.pages


class EventQuerySimulator:
    """Full-device DES execution of one channel-level query."""

    def __init__(
        self,
        ssd: Optional[SsdConfig] = None,
        placement: AcceleratorPlacement = CHANNEL_LEVEL,
        queue_depth: int = 8,
    ):
        if placement.level != "channel":
            raise ValueError("the event simulator models the channel level")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.ssd = ssd or SsdConfig()
        self.placement = placement
        self.queue_depth = queue_depth

    def run(
        self,
        app: AppSpec,
        meta: DatabaseMetadata,
        graph: Optional[Graph] = None,
        max_pages_per_channel: Optional[int] = None,
        injector: Optional["FaultInjector"] = None,
        policy: Optional[DispatchPolicy] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        page_offsets: Optional[Sequence[int]] = None,
    ) -> EventQueryResult:
        """Simulate one query over every channel; returns measured times.

        ``page_offsets`` restricts the scan to those db page offsets —
        the index layer's routed probe on the DES timeline (only the
        probed lists' pages stream off flash).  ``None`` scans the full
        database, bit-identical to the pre-index behaviour.

        With ``injector`` set, faults perturb the event timeline (read
        retries, CRC re-transfers, lost pages on dead chips) and dead
        channel accelerators are detected via ``policy`` timeouts and
        remapped: their stripe's pages are adopted round-robin by
        surviving channels' accelerators.  Without an injector the
        execution is bit-identical to the fault-free path.

        ``tracer``/``metrics`` observe the run without perturbing it:
        spans land on one trace pid per channel (bus/chip/accelerator
        lanes) plus an engine pid for the query lifecycle, and counters
        and latency histograms register into the shared registry.
        Timings are bit-identical with either, both, or neither set.

        ``max_pages_per_channel`` caps each channel's stripe (an
        integer >= 1); ``None`` scans every page.
        """
        if max_pages_per_channel is not None and not (
            isinstance(max_pages_per_channel, numbers.Integral)
            and not isinstance(max_pages_per_channel, bool)
            and max_pages_per_channel >= 1
        ):
            raise ValueError(
                f"max_pages_per_channel must be an integer >= 1, "
                f"got {max_pages_per_channel!r}"
            )
        graph = graph or app.build_scn()
        accel = InStorageAccelerator(self.placement, self.ssd, graph)
        geo = self.ssd.geometry
        sim = Simulator(tracer=tracer)
        tracing = sim.tracer is not None
        engine = QueryEngine(self.ssd)

        spf = accel.compute_seconds_per_feature(int(max(1, meta.feature_count / geo.channels)))
        compute_per_page, _ = page_compute(meta, spf)

        per_channel_done: Dict[int, float] = {}
        # one enumeration + group-by instead of `channels` full
        # re-enumerations; produces identical PageAccess lists
        traces = scan_traces_by_channel(
            meta, geo, max_pages_per_channel=max_pages_per_channel
        )
        if page_offsets is not None:
            wanted = set(int(o) for o in page_offsets)
            traces = {
                ch: [a for a in trace if a.db_page_offset in wanted]
                for ch, trace in traces.items()
            }
        total_pages = sum(len(t) for t in traces.values())

        # a dead channel accelerator loses its compute, not its data:
        # its stripe's pages still stream off its (healthy) bus but are
        # consumed by surviving channels' accelerators, round-robin
        failed_channels: List[int] = []
        remapped_pages = 0
        if injector is not None and injector.plan.injects_hard_failures:
            failed_channels = sorted(
                ch
                for ch in range(geo.channels)
                if injector.accelerator_dead(ch, 0.0)
            )
            survivors = [
                ch for ch in range(geo.channels) if ch not in failed_channels
            ]
            if not survivors:
                raise RuntimeError(
                    "all channel accelerators failed; no degraded mode"
                )
            orphaned = [
                access for ch in failed_channels for access in traces[ch]
            ]
            remapped_pages = len(orphaned)
            for ch in failed_channels:
                traces[ch] = []
            for j, access in enumerate(orphaned):
                traces[survivors[j % len(survivors)]].append(access)

        remaining_channels = {"n": sum(1 for t in traces.values() if t)}
        controllers: Dict[int, ChannelController] = {}
        streams = []

        def controller_for(access) -> ChannelController:
            # remapped pages are read through the bus of the channel
            # that stores them, not the consuming accelerator's
            channel = access.address.channel
            controller = controllers.get(channel)
            if controller is None:
                controller = ChannelController(
                    sim, geo, self.ssd.timing, channel,
                    injector=injector, metrics=metrics,
                )
                controllers[channel] = controller
            return controller

        def channel_finished(ch: int) -> None:
            per_channel_done[ch] = sim.now
            remaining_channels["n"] -= 1

        for ch, trace in traces.items():
            if not trace:
                per_channel_done[ch] = 0.0
                continue
            streams.append(stream_pages(
                sim, trace, self.queue_depth, compute_per_page, controller_for,
                track=(f"channel {ch}", "accelerator"), queue_name=f"dfv-{ch}",
                on_finished=functools.partial(channel_finished, ch),
            ))

        sim.run(stop_when=lambda: remaining_channels["n"] <= 0)
        scan_seconds = sim.now
        failed_pages = sum(stream.failed for stream in streams)
        if failed_channels:
            policy = policy or DispatchPolicy()
            survivors_n = geo.channels - len(failed_channels)
            dispatch = engine.degraded_dispatch_seconds(
                geo.channels, len(failed_channels), policy
            )
            merge = engine.merge_seconds(survivors_n, 10)
        else:
            dispatch = engine.dispatch_seconds(geo.channels)
            merge = engine.merge_seconds(geo.channels, 10)
        setup = accel.query_setup_seconds()
        overhead = dispatch + merge + setup
        total_seconds = scan_seconds + overhead
        if tracing:
            # query lifecycle on the engine pid.  The simulator executes
            # the scan at t=0 and the model appends the serial engine
            # costs, so the trace shows them in composition order:
            # scan, then dispatch/merge/setup back to back.
            track = sim.tracer.track("engine", "query")
            sim.tracer.instant(track, "query-issued", 0.0, cat="engine.query")
            sim.tracer.complete(track, "query", 0.0, total_seconds,
                                cat="engine.query",
                                args={"pages": total_pages,
                                      "failed_channels": list(failed_channels)})
            phase_track = sim.tracer.track("engine", "phases")
            sim.tracer.complete(phase_track, "scan", 0.0, scan_seconds,
                                cat="engine.phase")
            sim.tracer.complete(phase_track, "dispatch", scan_seconds,
                                dispatch, cat="engine.phase")
            sim.tracer.complete(phase_track, "merge", scan_seconds + dispatch,
                                merge, cat="engine.phase")
            sim.tracer.complete(phase_track, "setup",
                                scan_seconds + dispatch + merge, setup,
                                cat="engine.phase")
        result = EventQueryResult(
            total_seconds=total_seconds,
            scan_seconds=scan_seconds,
            per_channel_seconds=[per_channel_done.get(ch, 0.0)
                                 for ch in range(geo.channels)],
            pages=total_pages,
            pages_failed=failed_pages,
            failed_channels=failed_channels,
            remapped_pages=remapped_pages,
            dispatch_seconds=dispatch,
            merge_seconds=merge,
            setup_seconds=setup,
        )
        if metrics is not None:
            metrics.counter("engine.queries").inc()
            metrics.counter("engine.pages_scanned").inc(
                total_pages - failed_pages
            )
            metrics.histogram("engine.query_s").observe(total_seconds)
            metrics.gauge("engine.channel_skew").set(result.channel_skew)
        return result


@dataclass
class ChipChannelResult:
    """Measured event-driven execution of one chip-level channel."""

    seconds: float
    features: float
    pages: int
    weight_broadcasts: int
    bus_busy_seconds: float

    @property
    def seconds_per_feature(self) -> float:
        return self.seconds / self.features if self.features else 0.0


def simulate_chip_channel(
    app: AppSpec,
    meta: DatabaseMetadata,
    ssd: Optional[SsdConfig] = None,
    graph: Optional[Graph] = None,
    channel: int = 0,
    max_pages: int = 256,
    queue_depth: int = 4,
    tracer: Optional["Tracer"] = None,
    page_offsets: Optional[Sequence[int]] = None,
) -> ChipChannelResult:
    """Event-driven scan of one channel at the **chip** level.

    Four chip accelerators consume the pages stored on their own chip;
    the channel-level accelerator periodically broadcasts the model
    weights over the *same* channel bus (``occupy_bus``), once per
    lockstep window — so weight traffic and DFV traffic contend exactly
    as §4.5 describes.  Used to validate the analytic chip model's
    ``io + weight_broadcast`` bus accounting.
    """
    from repro.core.placement import CHIP_LEVEL

    ssd = ssd or SsdConfig()
    graph = graph or app.build_scn()
    accel = InStorageAccelerator(CHIP_LEVEL, ssd, graph)
    geo = ssd.geometry
    sim = Simulator(tracer=tracer)
    controller = ChannelController(sim, geo, ssd.timing, channel)

    stripe = int(max(1, meta.feature_count / (geo.channels * geo.chips_per_channel)))
    compute_per_page, features_per_page = page_compute(
        meta, accel.compute_seconds_per_feature(stripe)
    )

    window = CHIP_LEVEL.dfv_buffer_features(app.feature_bytes)
    features_per_round = window * geo.chips_per_channel
    weight_bytes = graph.weight_bytes()

    trace = scan_trace_bulk(meta, geo, channel=channel, max_pages=max_pages)
    if page_offsets is not None:
        wanted = set(int(o) for o in page_offsets)
        trace = [a for a in trace if a.db_page_offset in wanted]
    per_chip = {
        chip: [a for a in trace if a.address.chip == chip]
        for chip in range(geo.chips_per_channel)
    }
    state = {"features_since_broadcast": 0.0, "broadcasts": 0}

    def page_computed() -> None:
        # one lockstep window of features later, the channel-level
        # accelerator re-broadcasts the weights over the shared bus
        state["features_since_broadcast"] += features_per_page
        if state["features_since_broadcast"] >= features_per_round:
            state["features_since_broadcast"] -= features_per_round
            state["broadcasts"] += 1
            controller.occupy_bus(
                weight_bytes, lambda: None, label="weight-broadcast"
            )

    streams = [
        stream_pages(
            sim, chip_trace, queue_depth, compute_per_page, lambda _a: controller,
            track=(f"channel {channel}", f"chip {chip_index} accel"),
            queue_name="chip-dfv", on_page=page_computed,
        )
        for chip_index, chip_trace in per_chip.items()
        if chip_trace
    ]
    sim.run(stop_when=lambda: all(stream.finished for stream in streams))
    return ChipChannelResult(
        seconds=sim.now,
        features=features_per_page * len(trace),
        pages=len(trace),
        weight_broadcasts=state["broadcasts"],
        bus_busy_seconds=controller.bus.busy_seconds,
    )
