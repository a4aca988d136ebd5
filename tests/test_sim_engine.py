"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import BoundedQueue, Resource, Simulator
from repro.sim.engine import SimulationError


def _step(sim):
    """Run exactly the next live event."""
    sim.run(stop_when=lambda: True)


class TestSimulator:
    def test_runs_events_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_events_run_fifo(self):
        sim = Simulator()
        fired = []
        for name in "abcd":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcd")

    def test_schedule_after_uses_current_time(self):
        sim = Simulator()
        times = []
        def chain():
            times.append(sim.now)
            if len(times) < 3:
                sim.schedule_after(0.5, chain)
        sim.schedule(1.0, chain)
        sim.run()
        assert times == [1.0, 1.5, 2.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.events_processed == 0

    def test_stop_when_predicate(self):
        sim = Simulator()
        count = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: count.append(i))
        sim.run(stop_when=lambda: len(count) >= 4)
        assert len(count) == 4
        assert sim.now == 3.0
        sim.run()  # a stopped run resumes where it left off
        assert count == list(range(10))

    def test_heap_compaction_purges_cancelled_majority(self):
        # timeout-heavy workloads cancel most of what they schedule; the
        # heap must shed that garbage instead of growing without bound
        sim = Simulator()
        keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
        doomed = [sim.schedule(2000.0 + i, lambda: None) for i in range(100)]
        for event in doomed:
            event.cancel()
        assert sim.compactions >= 1
        # invariant: cancelled garbage never exceeds half the heap
        assert sim.cancelled_pending * 2 <= len(sim._heap)
        assert sim.pending_events == len(keep)
        assert len(sim._heap) < len(keep) + len(doomed)
        # the surviving events still fire, in order
        fired = []
        for event in keep:
            event.callback = lambda t=event.time: fired.append(t)
        sim.run()
        assert fired == sorted(e.time for e in keep)

    def test_small_heaps_skip_compaction(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        for event in events:
            event.cancel()
        assert sim.compactions == 0  # below COMPACT_MIN_HEAP: lazy pops win
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_after_fire_does_not_skew_accounting(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        _step(sim)
        event.cancel()  # already executed; must not count as pending
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 1

    def test_step_skips_cancelled_and_decrements_counter(self):
        # a run lazily pops cancelled heap heads; the cancelled-pending
        # counter must track every one of those pops
        sim = Simulator()
        doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.schedule(11.0, lambda: None)
        for event in doomed:
            event.cancel()
        assert sim.cancelled_pending == 3
        _step(sim)  # pops the corpses, runs the first live event
        assert fired == [10.0]
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 1
        assert sim.events_processed == 1

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.cancelled_pending == 1
        assert sim.pending_events == 0

    def test_compaction_resets_counter_then_peek_stays_consistent(self):
        # after a compaction rebuilt the heap, a run's lazy pops must
        # not drive the cancelled counter negative
        sim = Simulator()
        keep = [sim.schedule(100.0 + i, lambda: None) for i in range(5)]
        doomed = [sim.schedule(200.0 + i, lambda: None) for i in range(20)]
        for event in doomed:
            event.cancel()
        assert sim.compactions >= 1
        assert sim.cancelled_pending == 0
        _step(sim)
        assert sim.now == 100.0
        assert sim.cancelled_pending == 0
        sim.run()
        assert sim.events_processed == len(keep)
        assert sim.cancelled_pending == 0

    def test_cancel_between_steps_keeps_invariant(self):
        # interleave steps with cancellations: pending + cancelled must
        # always equal the heap size, and live events all still fire
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(9)]
        cancelled = 0
        for i, event in enumerate(events):
            if i % 3 == 0:
                _step(sim)
            if i % 2 == 1 and not event.cancelled and event.time > sim.now:
                event.cancel()
                cancelled += 1
            assert sim.pending_events + sim.cancelled_pending == len(sim._heap)
        sim.run()
        assert sim.events_processed == len(events) - cancelled
        assert sim.cancelled_pending == 0

    def test_cancel_releases_callback_closure(self):
        # hedged requests cancel completion events whose callbacks close
        # over whole result payloads; the payload must become garbage at
        # cancel time even while the Event handle stays referenced
        import gc
        import weakref

        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        event = sim.schedule(1.0, lambda p=payload: p)
        del payload
        gc.collect()
        assert ref() is not None  # pinned by the scheduled callback
        event.cancel()
        gc.collect()
        assert ref() is None  # released at cancel time, not at pop time
        sim.run()  # the corpse pops harmlessly

    def test_fired_event_releases_callback_closure(self):
        # a retained Event handle (hedging keeps them around to cancel
        # losers) must not pin the winner's payload after it fired
        import gc
        import weakref

        class Payload:
            pass

        sim = Simulator()
        payload = Payload()
        ref = weakref.ref(payload)
        event = sim.schedule(1.0, lambda p=payload: None)
        del payload
        sim.run()
        gc.collect()
        assert ref() is None
        assert event.time == 1.0  # handle still usable for bookkeeping

    def test_double_cancel_releases_once_and_stays_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled
        assert event.sim is None
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_after_fire_is_harmless_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]
        event.cancel()  # losers can be cancelled after the race resolved
        event.cancel()
        assert sim.cancelled_pending == 0
        assert sim.events_processed == 1

    def test_released_event_cannot_rerun(self):
        from repro.sim.engine import _released_callback

        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert event.callback is _released_callback
        with pytest.raises(SimulationError):
            event.callback()

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time(self, times):
        sim = Simulator()
        observed = []
        for t in times:
            sim.schedule(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)


class TestResource:
    def test_exclusive_fifo_service(self):
        sim = Simulator()
        res = Resource(sim, "bus")
        order = []
        res.acquire(2.0, lambda: order.append(("a", sim.now)))
        res.acquire(1.0, lambda: order.append(("b", sim.now)))
        res.acquire(1.0, lambda: order.append(("c", sim.now)))
        sim.run()
        assert order == [("a", 2.0), ("b", 3.0), ("c", 4.0)]

    def test_busy_seconds_accumulate(self):
        sim = Simulator()
        res = Resource(sim, "bus")
        res.acquire(2.0, lambda: None)
        res.acquire(3.0, lambda: None)
        sim.run()
        assert res.busy_seconds == pytest.approx(5.0)
        assert res.grants == 2

    def test_utilization(self):
        sim = Simulator()
        res = Resource(sim, "bus")
        res.acquire(1.0, lambda: None)
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert res.utilization() == pytest.approx(0.25)

    def test_negative_duration_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim).acquire(-1.0, lambda: None)

    def test_completion_can_reacquire(self):
        sim = Simulator()
        res = Resource(sim, "bus")
        done = []
        def again():
            done.append(sim.now)
            if len(done) < 3:
                res.acquire(1.0, again)
        res.acquire(1.0, again)
        sim.run()
        assert done == [1.0, 2.0, 3.0]

    def test_peak_queue_depth(self):
        sim = Simulator()
        res = Resource(sim)
        for _ in range(5):
            res.acquire(1.0, lambda: None)
        assert res.peak_queue_depth == 4


class TestBoundedQueue:
    def test_put_get_fifo(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=4)
        got = []
        q.put("a", lambda: None)
        q.put("b", lambda: None)
        q.get(got.append)
        q.get(got.append)
        sim.run()
        assert got == ["a", "b"]

    def test_full_queue_blocks_producer(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=1)
        accepted = []
        q.put("a", lambda: accepted.append("a"))
        q.put("b", lambda: accepted.append("b"))
        sim.run()
        assert accepted == ["a"]
        assert q.producer_stalls == 1
        got = []
        q.get(got.append)
        sim.run()
        assert accepted == ["a", "b"]
        assert got == ["a"]

    def test_empty_queue_blocks_consumer(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=2)
        got = []
        q.get(got.append)
        sim.run()
        assert got == []
        assert q.consumer_stalls == 1
        q.put("x", lambda: None)
        sim.run()
        assert got == ["x"]

    def test_direct_handoff_to_waiting_consumer(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=1)
        got = []
        q.get(got.append)
        q.put("x", lambda: None)
        sim.run()
        assert got == ["x"]
        assert len(q) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(Simulator(), capacity=0)

    def test_counters(self):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=8)
        for i in range(5):
            q.put(i, lambda: None)
        got = []
        for _ in range(5):
            q.get(got.append)
        sim.run()
        assert q.total_puts == 5
        assert q.total_gets == 5
        assert got == list(range(5))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=40))
    def test_all_items_delivered_in_order(self, capacity, n_items):
        sim = Simulator()
        q = BoundedQueue(sim, capacity=capacity)
        got = []
        for i in range(n_items):
            q.put(i, lambda: None)
        for _ in range(n_items):
            q.get(got.append)
        sim.run()
        assert got == list(range(n_items))
