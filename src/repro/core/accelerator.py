"""One in-storage accelerator instance.

Binds a :class:`~repro.core.placement.AcceleratorPlacement` to a concrete
SCN graph and SSD configuration, exposing:

* the **analytic** steady-state per-feature time (systolic compute +
  weight streaming + top-K maintenance), and the per-feature energy; and
* an **event-driven** stripe scan that couples the flash timing model to
  the compute model through the bounded ``FLASH_DFV`` queue (paper
  Fig. 5), used to validate the analytic path and to answer latency-
  sensitivity questions with real queueing behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultInjector
    from repro.obs.tracer import Tracer

from repro.core.placement import AcceleratorPlacement
from repro.energy import EnergyBreakdown, EnergyModel
from repro.nn.graph import Graph
from repro.sim import BoundedQueue, Simulator, fastpath
from repro.ssd.controller import ChannelController
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.timing import SsdConfig
from repro.ssd.trace import scan_trace_bulk
from repro.systolic import GraphMapper, GraphProfile


@dataclass
class StripeScanResult:
    """Outcome of an event-driven stripe scan."""

    features: float
    pages: int
    seconds: float
    #: pages lost to hard-failed chips/planes (fault injection only)
    pages_failed: int = 0

    @property
    def seconds_per_feature(self) -> float:
        return self.seconds / self.features if self.features > 0 else 0.0

    @property
    def availability(self) -> float:
        """Fraction of the stripe's pages actually delivered."""
        if self.pages == 0:
            return 1.0
        return (self.pages - self.pages_failed) / self.pages


class InStorageAccelerator:
    """Systolic array + scratchpads + controller for one placement."""

    def __init__(
        self,
        placement: AcceleratorPlacement,
        ssd: SsdConfig,
        graph: Graph,
        k: int = 10,
        energy_model: Optional[EnergyModel] = None,
    ):
        placement.check_supported(graph)
        self.placement = placement
        self.ssd = ssd
        self.graph = graph
        self.k = k
        self.energy_model = energy_model or EnergyModel()
        # Quantized graphs (repro.nn.quantization) run with narrower PEs:
        # more MACs per cycle and cheaper memory traffic.
        from dataclasses import replace

        from repro.nn.quantization import graph_precision
        from repro.systolic.array import SystolicArray

        self.precision = graph_precision(graph)
        systolic = replace(placement.systolic, ops_per_pe=self.precision.ops_per_pe)
        hierarchy = placement.build_hierarchy(ssd)
        self._stream_window = self._dfv_stream_window(graph, hierarchy)
        self._mapper = GraphMapper(
            SystolicArray(systolic),
            hierarchy,
            stream_window=self._stream_window,
        )
        self._profile: Optional[GraphProfile] = None

    #: FLASH_DFV staging queue depth, in flash pages (paper Fig. 5)
    FLASH_DFV_QUEUE_PAGES = 8

    def _dfv_stream_window(self, graph: Graph, hierarchy) -> int:
        """Feature vectors bufferable while a weight stream is in flight.

        Prefetched DFVs sit in the bounded FLASH_DFV queue; a
        non-resident weight stream (e.g. ReId's 10 MB FC) can only
        amortize over the features the queue holds, regardless of how
        large the accelerator's scratchpad is.
        """
        input_ids = graph.input_ids
        if len(input_ids) < 2:
            return 1
        dfv_shape = graph.shape_of(input_ids[1])
        dfv_bytes = 4
        for s in dfv_shape:
            dfv_bytes *= int(s)
        queue_bytes = self.FLASH_DFV_QUEUE_PAGES * self.ssd.geometry.page_bytes
        reserve = hierarchy.l1.size_bytes - hierarchy.l1_weight_capacity_bytes
        return max(1, min(queue_bytes, reserve) // dfv_bytes)

    # ------------------------------------------------------------------
    @property
    def profile(self) -> GraphProfile:
        if self._profile is None:
            # the mapping is a pure function of (graph, placement, ssd);
            # serving sweeps and cluster fleets build one accelerator
            # per leg over the same few graphs, so the memoized table
            # turns the N-th mapping into a lookup
            self._profile = fastpath.profile_table(
                self.graph,
                (self.placement, self.ssd, self._stream_window),
                lambda: self._mapper.map_graph(self.graph),
            )
        return self._profile

    def topk_seconds_per_feature(self, stripe_features: int) -> float:
        """Controller top-K maintenance cost per candidate."""
        n_candidates = max(self.k, stripe_features)
        cycles = fastpath.expected_topk_cycles(self.k, n_candidates)
        return cycles / self.placement.systolic.frequency_hz

    def compute_seconds_per_feature(self, stripe_features: int = 1_000_000) -> float:
        """Steady-state per-feature time excluding flash I/O."""
        return self.profile.seconds_per_feature + self.topk_seconds_per_feature(
            stripe_features
        )

    def query_setup_seconds(self) -> float:
        """One-time per-query cost: loading resident weights."""
        return self.profile.query_setup_seconds

    # ------------------------------------------------------------------
    def feature_energy(self, meta: DatabaseMetadata) -> EnergyBreakdown:
        """Energy to process one database feature vector."""
        pages_per_feature = meta.total_pages / meta.feature_count
        l2_bytes = None
        if self._mapper.scratchpads.l2 is not None:
            l2_bytes = self._mapper.scratchpads.l2.size_bytes
        return self.energy_model.accelerator_feature_energy(
            self.profile,
            scratchpad_bytes=self.placement.scratchpad_bytes,
            sram_model=self.placement.sram_model,
            l2_bytes=l2_bytes,
            flash_pages_per_feature=pages_per_feature,
            area_mm2=self.placement.area_mm2,
            precision=self.precision.name,
        )

    def average_power_w(self, meta: DatabaseMetadata, seconds_per_feature: float) -> float:
        """Average accelerator power at the given feature rate."""
        if seconds_per_feature <= 0:
            raise ValueError("seconds_per_feature must be positive")
        return self.feature_energy(meta).total_j / seconds_per_feature

    # ------------------------------------------------------------------
    # event-driven stripe scan (channel-level fidelity path)
    # ------------------------------------------------------------------
    def simulate_stripe_scan(
        self,
        meta: DatabaseMetadata,
        channel: int = 0,
        max_pages: int = 256,
        queue_depth: int = 8,
        injector: Optional["FaultInjector"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> StripeScanResult:
        """Scan a window of this channel's stripe with full event timing.

        The flash controller prefetches pages into a bounded FLASH_DFV
        queue while the systolic model consumes them — a full queue
        stalls prefetch (compute-bound), an empty queue stalls compute
        (flash-bound), exactly as in hardware.  With ``injector`` set,
        NAND read-retries and bus CRC re-transfers stretch the event
        timeline and dead chips drop their pages (counted in the
        result); without one the timing is bit-identical to before.
        """
        if self.placement.level != "channel":
            raise ValueError("stripe scans model channel-level accelerators")
        sim = Simulator(tracer=tracer)
        controller = ChannelController(
            sim, self.ssd.geometry, self.ssd.timing, channel, injector=injector
        )
        accel_track = (
            sim.tracer.track(f"channel {channel}", "accelerator")
            if sim.tracer is not None
            else None
        )
        queue = BoundedQueue(sim, queue_depth, name="FLASH_DFV")
        trace = scan_trace_bulk(
            meta, self.ssd.geometry, channel=channel, max_pages=max_pages
        )
        if not trace:
            return StripeScanResult(0.0, 0, 0.0)

        cursor = {"next": 0}
        done = {"pages": 0}
        failed = {"pages": 0}

        def page_failed(_addr) -> None:
            failed["pages"] += 1
            issue_next()

        def issue_next() -> None:
            i = cursor["next"]
            if i >= len(trace):
                return
            cursor["next"] = i + 1
            controller.read_page(
                trace[i].address,
                lambda addr: queue.put(addr, issue_next),
                on_failed=page_failed,
            )

        # Per page, the accelerator computes over the features it holds.
        if meta.page_aligned:
            compute_per_page = (
                self.compute_seconds_per_feature() / meta.pages_per_feature
            )
            features_per_page = 1.0 / meta.pages_per_feature
        else:
            compute_per_page = (
                self.compute_seconds_per_feature() * meta.features_per_page
            )
            features_per_page = float(meta.features_per_page)

        def consume() -> None:
            def got(_page) -> None:
                if accel_track is not None:
                    sim.tracer.complete(
                        accel_track, "scn-compute", sim.now,
                        compute_per_page, cat="accel.compute",
                    )
                sim.schedule_after(compute_per_page, finished)

            def finished() -> None:
                done["pages"] += 1
                if done["pages"] + failed["pages"] < len(trace):
                    consume()

            queue.get(got)

        for _ in range(min(queue_depth, len(trace))):
            issue_next()
        consume()
        sim.run(
            stop_when=lambda: done["pages"] + failed["pages"] >= len(trace)
        )
        return StripeScanResult(
            features=features_per_page * done["pages"],
            pages=len(trace),
            seconds=sim.now,
            pages_failed=failed["pages"],
        )
