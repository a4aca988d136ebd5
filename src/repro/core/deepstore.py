"""Whole-system DeepStore performance/energy model.

:class:`DeepStoreSystem` combines one accelerator placement with the SSD
model and the query engine to answer: *how long does one intelligent
query (a full database scan) take, and what does it cost in energy?*

Per level, the steady-state per-feature time is the max of the flash
feed rate and the accelerator's compute/weight-stream rate:

* **SSD level** — one accelerator fed by all channels through DRAM; the
  feed rate is ``min(internal bandwidth, DRAM bandwidth)``.
* **channel level** — one accelerator per channel, each consuming its
  800 MB/s channel; non-resident weights broadcast from DRAM in lockstep.
* **chip level** — four accelerators per channel behind the shared bus;
  the bus carries both the DFV pages *and* the weight broadcasts the
  channel accelerator schedules (WS dataflow), so models with large
  weights pay bus time per scheduling window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.accelerator import InStorageAccelerator
from repro.core.engine import DispatchPolicy, EngineCosts, QueryEngine
from repro.core.placement import LEVELS, AcceleratorPlacement, CHANNEL_LEVEL
from repro.energy import EnergyBreakdown, EnergyModel
from repro.nn.graph import Graph
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.timing import SsdConfig
from repro.workloads.apps import AppSpec


@dataclass
class QueryLatency:
    """Latency/energy decomposition of one in-storage query."""

    app: str
    level: str
    n_features: int
    accel_count: int
    # per-accelerator steady-state rates (seconds per feature)
    compute_spf: float
    io_spf: float
    bus_weight_spf: float
    # serial components
    engine_seconds: float
    setup_seconds: float
    scan_seconds: float
    merge_seconds: float
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    #: stock SSD hardware power (controller, DRAM, interfaces) drawn for
    #: the whole query duration; part of DeepStore's Fig. 11 denominator
    base_power_w: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.engine_seconds
            + self.setup_seconds
            + self.scan_seconds
            + self.merge_seconds
        )

    @property
    def seconds_per_feature(self) -> float:
        return self.total_seconds / self.n_features if self.n_features else 0.0

    @property
    def bound(self) -> str:
        """What limits the steady-state scan."""
        rates = {
            "compute": self.compute_spf,
            "flash": self.io_spf,
            "weight-broadcast": self.bus_weight_spf,
        }
        return max(rates, key=rates.get)

    @property
    def accelerator_power_w(self) -> float:
        """Dynamic accelerator (+flash access) power alone."""
        return self.energy.total_j / self.total_seconds if self.total_seconds else 0.0

    @property
    def power_w(self) -> float:
        """Whole-device power: dynamic accelerator energy + SSD base."""
        return self.accelerator_power_w + self.base_power_w


class DeepStoreSystem:
    """DeepStore at one placement level inside one SSD."""

    #: FLASH_DFV queue depth used by the latency-hiding model
    QUEUE_DEPTH = 8

    def __init__(
        self,
        ssd: Optional[SsdConfig] = None,
        placement: AcceleratorPlacement = CHANNEL_LEVEL,
        k: int = 10,
        engine_costs: Optional[EngineCosts] = None,
        energy_model: Optional[EnergyModel] = None,
    ):
        self.ssd = ssd or SsdConfig()
        self.placement = placement
        self.k = k
        self.engine = QueryEngine(self.ssd, engine_costs)
        self.energy_model = energy_model or EnergyModel()
        self._accel_cache: Dict[str, InStorageAccelerator] = {}

    @classmethod
    def at_level(cls, level: str, **kwargs) -> "DeepStoreSystem":
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {list(LEVELS)}")
        return cls(placement=LEVELS[level], **kwargs)

    # ------------------------------------------------------------------
    def accelerator_for(self, graph: Graph) -> InStorageAccelerator:
        """The (cached) accelerator instance bound to a graph."""
        accel = self._accel_cache.get(graph.name)
        if accel is None:
            accel = InStorageAccelerator(
                self.placement, self.ssd, graph, k=self.k,
                energy_model=self.energy_model,
            )
            self._accel_cache[graph.name] = accel
        return accel

    # ------------------------------------------------------------------
    # steady-state rates
    # ------------------------------------------------------------------
    def _page_feed_seconds(self, outstanding: int) -> float:
        """Steady per-page delivery time on one channel."""
        timing = self.ssd.timing
        geo = self.ssd.geometry
        page_time = timing.transfer_seconds(geo.page_bytes) + timing.command_overhead_s
        latency_limit = timing.array_read_latency_s / max(1, outstanding)
        return max(page_time, latency_limit)

    def io_seconds_per_feature(self, meta: DatabaseMetadata) -> float:
        """Flash feed time per feature for this placement."""
        geo = self.ssd.geometry
        pages_per_feature = meta.total_pages / meta.feature_count
        if self.placement.level == "ssd":
            # All channels feed one accelerator through SSD DRAM.
            per_channel = self._page_feed_seconds(
                min(geo.planes_per_channel, 4 * self.QUEUE_DEPTH)
            )
            page_feed = per_channel / geo.channels
            dram_limit = geo.page_bytes / self.ssd.dram_bandwidth
            return pages_per_feature * max(page_feed, dram_limit)
        # channel and chip level: the channel bus feeds the accelerators
        # attached to it; per-channel stripes scan in parallel.  The
        # FLASH_DFV queue bounds the reads in flight, so very slow flash
        # (4x the 53 us baseline) becomes partially visible to I/O-bound
        # apps — the modest sensitivity of paper Fig. 9.
        outstanding = min(geo.planes_per_channel, self.QUEUE_DEPTH)
        return pages_per_feature * self._page_feed_seconds(outstanding)

    def bus_weight_seconds_per_feature(
        self, graph: Graph, feature_bytes: int
    ) -> float:
        """Chip level only: weight-broadcast bus time per feature."""
        if self.placement.level != "chip":
            return 0.0
        geo = self.ssd.geometry
        window = self.placement.dfv_buffer_features(feature_bytes)
        features_per_round = geo.chips_per_channel * window
        weight_bytes = graph.weight_bytes()
        return (
            weight_bytes
            / self.ssd.timing.channel_bandwidth
            / features_per_round
        )

    # ------------------------------------------------------------------
    # the headline number
    # ------------------------------------------------------------------
    def query_latency(
        self,
        app: AppSpec,
        meta: DatabaseMetadata,
        graph: Optional[Graph] = None,
        fidelity: str = "analytic",
    ) -> QueryLatency:
        """Latency/energy of one query scanning database ``meta``.

        ``fidelity="event"`` replays a stripe window through the
        event-driven flash model instead of the closed-form feed rate
        (channel level only; other levels fall back to analytic).
        """
        graph = graph or app.build_scn()
        return self.latency_for(
            graph, meta, feature_bytes=app.feature_bytes, name=app.name,
            fidelity=fidelity,
        )

    def latency_for(
        self,
        graph: Graph,
        meta: DatabaseMetadata,
        feature_bytes: int,
        name: str = "",
        fidelity: str = "analytic",
    ) -> QueryLatency:
        """Like :meth:`query_latency` but without an :class:`AppSpec`."""
        if fidelity not in ("analytic", "event"):
            raise ValueError(f"unknown fidelity {fidelity!r}")
        accel = self.accelerator_for(graph)
        geo = self.ssd.geometry
        count = self.placement.count(self.ssd)
        n = meta.feature_count
        stripe_features = n / count

        compute_spf = accel.compute_seconds_per_feature(int(max(1, stripe_features)))
        io_spf = self.io_seconds_per_feature(meta)
        bus_spf = self.bus_weight_seconds_per_feature(graph, feature_bytes)

        if self.placement.level == "chip":
            # Per channel: 4 chips compute in parallel behind one bus.
            chips = geo.chips_per_channel
            per_channel_spf = max(io_spf + bus_spf, compute_spf / chips)
            scan = (n / geo.channels) * per_channel_spf
        elif self.placement.level == "channel":
            per_accel_spf = max(io_spf, compute_spf)
            if fidelity == "event":
                window = accel.simulate_stripe_scan(
                    meta, channel=0, max_pages=256, queue_depth=self.QUEUE_DEPTH
                )
                if window.features > 0:
                    per_accel_spf = window.seconds_per_feature
            scan = stripe_features * per_accel_spf
        else:  # ssd level
            per_accel_spf = max(io_spf, compute_spf)
            scan = n * per_accel_spf

        engine = self.engine.dispatch_seconds(count)
        setup = accel.query_setup_seconds()
        merge = self.engine.merge_seconds(count, self.k)

        energy = self._query_energy(accel, meta, n, engine + merge)
        return QueryLatency(
            app=name,
            level=self.placement.level,
            n_features=n,
            accel_count=count,
            compute_spf=compute_spf / (geo.chips_per_channel if self.placement.level == "chip" else 1),
            io_spf=io_spf,
            bus_weight_spf=bus_spf,
            engine_seconds=engine,
            setup_seconds=setup,
            scan_seconds=scan,
            merge_seconds=merge,
            energy=energy,
            base_power_w=self.ssd.base_power_w,
        )

    def pass_seconds(
        self, graph: Graph, n_rows: int, feature_bytes: int, page_bytes: int
    ) -> float:
        """Seconds of one accelerator pass over ``n_rows`` feature rows.

        Prices a scan that has no on-flash database of its own (a
        centroid table, a training pass, a probed subset): only the row
        count and the page geometry enter the latency model.
        """
        meta = DatabaseMetadata(
            db_id=0,
            feature_bytes=feature_bytes,
            feature_count=max(1, n_rows),
            page_bytes=page_bytes,
        )
        meta.extents = []
        return self.latency_for(
            graph, meta, feature_bytes=feature_bytes, name=graph.name
        ).total_seconds

    # ------------------------------------------------------------------
    # degraded mode
    # ------------------------------------------------------------------
    def degraded_latency_for(
        self,
        graph: Graph,
        meta: DatabaseMetadata,
        feature_bytes: int,
        failed_accels: Sequence[int],
        name: str = "",
        policy: Optional[DispatchPolicy] = None,
    ) -> QueryLatency:
        """Query cost with ``failed_accels`` dead and their work remapped.

        The surviving accelerators adopt the failed stripes
        (:func:`~repro.core.scheduler.plan_degraded_scan`), so the scan
        finishes when the most-loaded survivor finishes; the engine
        additionally pays one dispatch timeout/backoff ladder per dead
        accelerator before it can remap.  Top-K results are unchanged —
        only time degrades.
        """
        import dataclasses

        from repro.core.scheduler import plan_degraded_scan

        policy = policy or DispatchPolicy()
        count = self.placement.count(self.ssd)
        plan = plan_degraded_scan(meta.feature_count, count, failed_accels)
        healthy = self.latency_for(graph, meta, feature_bytes, name=name)
        survivors = len(plan.assignments)
        return dataclasses.replace(
            healthy,
            accel_count=survivors,
            scan_seconds=healthy.scan_seconds * plan.load_factor,
            engine_seconds=self.engine.degraded_dispatch_seconds(
                count, count - survivors, policy
            ),
            merge_seconds=self.engine.merge_seconds(survivors, self.k),
        )

    def _query_energy(
        self,
        accel: InStorageAccelerator,
        meta: DatabaseMetadata,
        n_features: int,
        engine_seconds: float,
    ) -> EnergyBreakdown:
        per_feature = accel.feature_energy(meta)
        total = per_feature.scaled(n_features)
        total.compute_j += self.engine.energy_j(engine_seconds)
        return total

    # ------------------------------------------------------------------

    def supports(self, graph: Graph) -> bool:
        """Whether this placement can execute the model."""
        return self.placement.supports(graph)
