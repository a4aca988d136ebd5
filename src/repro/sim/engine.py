"""Core event scheduler.

A :class:`Simulator` owns a priority queue of :class:`Event` records and a
monotonically advancing clock.  Time is a float in **seconds**; all SSD and
accelerator models convert cycles/latencies to seconds before scheduling.

The heap stores plain ``(time, seq, event)`` tuples rather than the
:class:`Event` dataclasses themselves, so every sift comparison runs in
C on the leading float/int pair (``seq`` is unique, so the event is
never compared).  :meth:`Simulator.schedule_bulk` adds homogeneous
event batches with one heapify, and an inlined loop drains the heap
when no tracer is attached.  Cancelled events stay in the heap as
corpses until popped or compacted away.  ``tests/test_sim_fastpath.py``
checks fire order, clock and cancellation/compaction accounting
against an in-test reference heap of :class:`Event` dataclasses.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (e.g. scheduling in the past)."""


def _released_callback() -> None:  # pragma: no cover - defensive
    raise SimulationError("a released (cancelled or fired) event ran")


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, seq)``; ``seq`` is a tie-breaking insertion
    counter so same-time events run in FIFO order, which makes simulations
    deterministic.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    #: owning scheduler, set by :meth:`Simulator.schedule`; lets
    #: ``cancel`` report itself so the heap can be compacted
    sim: Optional["Simulator"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped.

        Idempotent: cancelling twice counts once.  The callback and the
        scheduler backreference are dropped *at cancel time*, not when
        the corpse is eventually popped or compacted away — hedged
        requests cancel callbacks that close over whole result payloads,
        which must not stay reachable for the rest of the simulation.
        """
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = _released_callback
        sim, self.sim = self.sim, None
        if sim is not None:
            sim._note_cancelled()


#: one heap entry: (time, seq, event) — ordering compares the leading
#: floats/ints in C and never reaches the event (seq is unique), which
#: is the entire point of the representation
HeapEntry = Tuple[float, int, "Event"]


class Simulator:
    """Minimal discrete-event scheduler.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append("b"))
    >>> _ = sim.schedule(1.0, lambda: fired.append("a"))
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    #: compaction triggers only past this heap size — tiny heaps are
    #: cheap to scan lazily and not worth a rebuild
    COMPACT_MIN_HEAP = 8

    def __init__(self, tracer: Optional["Tracer"] = None) -> None:
        self._heap: List[HeapEntry] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        # Disabled tracers resolve to None here so the hot dispatch loop
        # pays one `is None` check and nothing else; instrumented
        # components (resources, chips) read `sim.tracer` for the same
        # reason.  Tracing only appends records — it never schedules —
        # so simulated timings are identical with or without it.
        self.tracer = (
            tracer if tracer is not None and tracer.enabled else None
        )
        self._event_track = (
            self.tracer.track("sim", "events")
            if self.tracer is not None
            else None
        )

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (diagnostics/tests)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events still waiting in the heap."""
        return len(self._heap) - self._cancelled_pending

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events not yet removed from the heap."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Times the heap was rebuilt to purge cancelled events."""
        return self._compactions

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; purges when >50% is dead.

        Long timeout-heavy simulations (e.g. dispatch retry ladders
        where almost every timeout is cancelled by a completion) would
        otherwise grow the heap without bound; an O(n) rebuild amortized
        against n/2 cancellations is O(1) per cancel.
        """
        self._cancelled_pending += 1
        if (
            len(self._heap) > self.COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            # in-place slice assignment: the drain loop holds a
            # reference to this exact list across callbacks
            self._heap[:] = [
                entry for entry in self._heap if not entry[2].cancelled
            ]
            heapq.heapify(self._heap)
            self._cancelled_pending = 0
            self._compactions += 1

    def schedule(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        event = Event(
            time=time, seq=next(self._counter), callback=callback,
            label=label, sim=self,
        )
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def schedule_bulk(
        self,
        times: Sequence[float],
        callbacks: Sequence[Callable[[], None]],
        label: str = "",
    ) -> List[Event]:
        """Schedule a homogeneous batch; identical to N :meth:`schedule` calls.

        Events get consecutive sequence numbers in input order, so ties
        resolve exactly as the equivalent loop would.  A batch landing
        in an empty heap skips per-event sifting: an
        already-sorted batch (e.g. an arrival schedule) *is* a valid
        heap, and an unsorted one needs one O(n) heapify instead of n
        O(log n) pushes.
        """
        if len(times) != len(callbacks):
            raise SimulationError("times and callbacks must align")
        now = self._now
        for time in times:
            if time < now:
                raise SimulationError(
                    f"cannot schedule event at {time} before now={now}"
                )
        events = [
            Event(time=time, seq=next(self._counter), callback=callback,
                  label=label, sim=self)
            for time, callback in zip(times, callbacks)
        ]
        entries: List[HeapEntry] = [
            (event.time, event.seq, event) for event in events
        ]
        was_empty = not self._heap
        # extend in place: the drain loop aliases this list
        self._heap.extend(entries)
        if not was_empty or any(
            entries[i][0] > entries[i + 1][0]
            for i in range(len(entries) - 1)
        ):
            heapq.heapify(self._heap)
        return events

    def schedule_after(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, callback, label=label)

    def _head(self) -> Optional[Event]:
        """Event at the heap head with cancelled corpses drained."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1
        return heap[0][2] if heap else None

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        head = self._head()
        return head.time if head is not None else None

    def step(self) -> bool:
        """Run the single next event.  Returns False when none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = event.time
            self._events_processed += 1
            if self.tracer is not None:
                # one `sim.event` instant per dispatched callback: the
                # exported trace reconciles this count against
                # `events_processed` exactly
                self.tracer.instant(
                    self._event_track,
                    event.label or "event",
                    event.time,
                    cat="sim.event",
                )
            # the event left the heap: a late cancel() must not skew
            # the cancelled-pending accounting
            event.sim = None
            callback = event.callback
            # release the closure before running it — callers holding
            # the Event handle (hedging keeps completion events around
            # to cancel losers) must not pin the payload it closes over
            event.callback = _released_callback
            callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run events until exhaustion, ``until`` time, or a predicate.

        ``until`` is inclusive: events at exactly ``until`` still execute.
        ``stop_when`` is checked after every event; it allows callers to
        stop a steady-state window simulation once enough work finished.
        """
        if self.tracer is None:
            self._run_untraced(until, max_events, stop_when)
            return
        executed = 0
        while True:
            next_time = self.peek()
            if next_time is None:
                return
            if until is not None and next_time > until:
                self._now = until
                return
            self.step()
            executed += 1
            if stop_when is not None and stop_when():
                return
            if max_events is not None and executed >= max_events:
                return

    def _run_untraced(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop_when: Optional[Callable[[], bool]],
    ) -> None:
        """Inlined drain loop over (time, seq, event) heap entries.

        Dispatch order, clock updates, and cancellation accounting are
        exactly :meth:`peek` + :meth:`step`; the win is skipping two
        method calls and re-validations per event, which at hundreds of
        thousands of flash-page events per scan is the difference
        between the heap loop and the model dominating the profile.
        """
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                pop(heap)
                self._cancelled_pending -= 1
                continue
            if until is not None and time > until:
                self._now = until
                return
            pop(heap)
            self._now = time
            self._events_processed += 1
            # identical release protocol to step(): the heap no longer
            # owns the event, late cancels must not skew accounting, and
            # the closure must not outlive its dispatch
            event.sim = None
            callback = event.callback
            event.callback = _released_callback
            callback()
            executed += 1
            if stop_when is not None and stop_when():
                return
            if max_events is not None and executed >= max_events:
                return
