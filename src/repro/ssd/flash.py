"""Flash chip and plane timing model.

Each chip contains independently operating planes (paper §2.2).  A plane
services one array read at a time: it is busy for the array read latency,
after which the page sits in the plane's **page buffer** until the channel
bus drains it.  The plane cannot start the next read until its buffer is
free — this buffer hand-off is what couples array latency and channel
bandwidth, and is why Fig. 9 shows only ~10% slowdown at 4x latency: with
32 planes per channel the bus, not the array, is the steady-state limiter.

When a :class:`~repro.faults.FaultInjector` is attached, a page read may
need ECC **read-retry** passes: the plane re-arms and senses again with
shifted read-reference voltages, occupying the plane for one extra array
read latency per pass (the dominant real-world NAND tail-latency source).
Reads targeting a hard-failed chip/plane complete as *failures* instead
of deliveries.  Without an injector the timing path is bit-identical to
the original fault-free model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.sim import Simulator
from repro.ssd.geometry import PhysicalPageAddress
from repro.ssd.timing import FlashTiming

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultInjector
    from repro.obs.tracer import TrackHandle


@dataclass
class _PlaneState:
    """Occupancy of one plane: idle -> reading -> buffered -> idle."""

    reading: bool = False
    buffered: bool = False
    queue: Deque["PageReadRequest"] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.queue is None:
            self.queue = deque()

    @property
    def can_start(self) -> bool:
        return not self.reading and not self.buffered


@dataclass
class PageReadRequest:
    """One page read against a specific plane.

    ``on_failed`` (optional) fires instead of ``on_buffered`` when the
    target chip/plane is hard-failed under the active fault plan.
    """

    address: PhysicalPageAddress
    on_buffered: Callable[["PageReadRequest"], None]
    issue_time: float = 0.0
    buffered_time: float = 0.0
    on_failed: Optional[Callable[["PageReadRequest"], None]] = None
    #: extra array-read passes this read cost (filled in by the chip)
    retry_passes: int = 0
    #: when the plane actually started sensing (queueing excluded)
    service_start: float = 0.0


class FlashChip:
    """Event-driven model of one flash chip (a set of planes)."""

    def __init__(
        self,
        sim: Simulator,
        timing: FlashTiming,
        planes: int,
        name: str = "chip",
        injector: Optional["FaultInjector"] = None,
    ):
        if planes <= 0:
            raise ValueError("chip needs at least one plane")
        self.sim = sim
        self.timing = timing
        self.name = name
        self.injector = injector
        self._planes = [_PlaneState() for _ in range(planes)]
        self.pages_read = 0
        self.reads_failed = 0
        self.retry_passes = 0
        #: trace lane for this chip's array reads (set by the channel
        #: controller when tracing; None keeps the hooks free)
        self.track: Optional["TrackHandle"] = None

    def read(self, request: PageReadRequest) -> None:
        """Queue an array read; ``on_buffered`` fires when the page lands
        in the plane's page buffer (channel transfer is the caller's job).
        """
        plane = self._planes[request.address.plane]
        request.issue_time = self.sim.now
        if self._read_fails(request):
            return
        if plane.can_start:
            self._start(plane, request)
        else:
            plane.queue.append(request)

    def _read_fails(self, request: PageReadRequest) -> bool:
        """Fail reads against hard-dead planes (fault plan only)."""
        inj = self.injector
        if inj is None or not inj.plan.injects_hard_failures:
            return False
        addr = request.address
        if not inj.plane_dead(addr.channel, addr.chip, addr.plane, self.sim.now):
            return False
        inj.note_failed_read()
        self.reads_failed += 1
        if self.track is not None and self.sim.tracer is not None:
            self.sim.tracer.instant(
                self.track, "read-failed", self.sim.now, cat="ssd.fault",
                args={"plane": request.address.plane},
            )
        if request.on_failed is not None:
            # the controller learns of the failure after the command
            # round-trip, not instantaneously
            self.sim.schedule_after(
                self.timing.command_overhead_s,
                lambda: request.on_failed(request),
                label=f"{self.name}-read-failed",
            )
        return True

    def release_buffer(self, plane_index: int) -> None:
        """Called by the channel controller once the bus drained the page."""
        plane = self._planes[plane_index]
        if not plane.buffered:
            raise RuntimeError(f"{self.name} plane {plane_index}: buffer not held")
        plane.buffered = False
        if plane.queue and plane.can_start:
            self._start(plane, plane.queue.popleft())

    # ------------------------------------------------------------------
    def _start(self, plane: _PlaneState, request: PageReadRequest) -> None:
        plane.reading = True
        request.service_start = self.sim.now
        retries = 0
        if self.injector is not None:
            retries = self.injector.page_read_retries(request.address)
            request.retry_passes = retries
            self.retry_passes += retries
        self._arm(plane, request, retries)

    def _arm(self, plane: _PlaneState, request: PageReadRequest, passes_left: int) -> None:
        """Schedule one array-read pass; re-arm while ECC retries remain."""
        self.sim.schedule_after(
            self.timing.array_read_latency_s,
            lambda: self._pass_done(plane, request, passes_left),
            label=f"{self.name}-read",
        )

    def _pass_done(self, plane: _PlaneState, request: PageReadRequest, passes_left: int) -> None:
        if passes_left > 0:
            # read-retry: shift reference voltages and sense again; the
            # plane stays busy for another full array read latency
            self._arm(plane, request, passes_left - 1)
            return
        self._finish_read(plane, request)

    def _finish_read(self, plane: _PlaneState, request: PageReadRequest) -> None:
        plane.reading = False
        plane.buffered = True
        self.pages_read += 1
        request.buffered_time = self.sim.now
        if self.track is not None and self.sim.tracer is not None:
            args = {"plane": request.address.plane}
            if request.retry_passes:
                # fault metadata: ECC read-retry passes stretched this span
                args["retry_passes"] = request.retry_passes
            self.sim.tracer.complete(
                self.track, "array-read", request.service_start,
                self.sim.now - request.service_start,
                cat="ssd.flash", args=args,
            )
        request.on_buffered(request)
