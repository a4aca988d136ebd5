"""Tests for the span/instant tracer and its simulator hooks."""

import json
import pytest

from repro.core.event_query import EventQuerySimulator
from repro.obs import (
    Tracer,
    chrome_trace,
    write_chrome_trace,
)
from repro.sim import Simulator
from repro.ssd import Ssd
from repro.workloads import get_app


@pytest.fixture(scope="module")
def small_db():
    """A small database so a traced full DES run is cheap."""
    ssd = Ssd()
    app = get_app("tir")
    meta = ssd.ftl.create_database(app.feature_bytes, 20_000)
    return app, meta


class TestTrackInterning:
    def test_same_pair_returns_same_handle(self):
        t = Tracer()
        assert t.track("channel 0", "bus") == t.track("channel 0", "bus")

    def test_one_pid_per_process(self):
        t = Tracer()
        bus = t.track("channel 0", "bus")
        chip = t.track("channel 0", "chip 1")
        other = t.track("channel 1", "bus")
        assert bus.pid == chip.pid
        assert bus.tid != chip.tid
        assert other.pid != bus.pid

    def test_tids_are_scoped_per_pid(self):
        t = Tracer()
        a = t.track("channel 0", "bus")
        b = t.track("channel 1", "bus")
        # each process numbers its own threads from 0
        assert a.tid == 0 and b.tid == 0

    def test_names_round_trip(self):
        t = Tracer()
        handle = t.track("channel 3", "chip 2")
        assert t.process_names[handle.pid] == "channel 3"
        assert t.thread_names[(handle.pid, handle.tid)] == "chip 2"
        assert t.track_name(handle) == "channel 3/chip 2"


class TestRecording:
    def test_complete_span(self):
        t = Tracer()
        track = t.track("p", "t")
        t.complete(track, "work", 1.0, 0.5, cat="x", args={"k": 1})
        (span,) = t.spans
        assert span.name == "work"
        assert span.start == 1.0
        assert span.end == 1.5
        assert span.args == {"k": 1}
        assert t.span_count == 1
        assert t.count("x") == 1

    def test_instant(self):
        t = Tracer()
        track = t.track("p", "t")
        t.instant(track, "mark", 2.0, cat="ev")
        assert t.count("ev") == 1
        assert t.end_time == 2.0

    def test_end_time_covers_spans_and_instants(self):
        t = Tracer()
        track = t.track("p", "t")
        t.complete(track, "a", 0.0, 3.0)
        t.instant(track, "b", 5.0)
        assert t.end_time == 5.0


class TestSimulatorHook:
    def test_disabled_tracer_normalized_to_none(self):
        assert Simulator().tracer is None
        t = Tracer()
        assert Simulator(tracer=t).tracer is t

    def test_one_instant_per_dispatched_event(self):
        t = Tracer()
        sim = Simulator(tracer=t)
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        cancelled = sim.schedule(9.0, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_processed == 5
        assert t.count("sim.event") == 5


class TestZeroPerturbation:
    def test_traced_run_is_bit_identical(self, small_db):
        """The acceptance criterion: tracing never changes timing."""
        app, meta = small_db
        plain = EventQuerySimulator().run(app, meta, max_pages_per_channel=32)
        tracer = Tracer()
        traced = EventQuerySimulator().run(
            app, meta, max_pages_per_channel=32, tracer=tracer
        )
        assert traced.total_seconds == plain.total_seconds  # exact, no approx
        assert traced.per_channel_seconds == plain.per_channel_seconds
        assert traced.pages == plain.pages
        assert tracer.span_count > 0  # the traced run really recorded

    def test_trace_reconciles_with_events_processed(self, small_db):
        app, meta = small_db
        tracer = Tracer()
        EventQuerySimulator().run(
            app, meta, max_pages_per_channel=16, tracer=tracer
        )
        # every dispatched callback left exactly one sim.event instant
        assert tracer.count("sim.event") > 0
        flash_spans = [s for s in tracer.spans if s.cat == "ssd.flash"]
        bus_spans = [s for s in tracer.spans if s.cat == "ssd.bus"]
        assert flash_spans and bus_spans
        # every array read and bus transfer happened within the query
        for span in flash_spans + bus_spans:
            assert 0.0 <= span.start <= span.end <= tracer.end_time


class TestChromeExport:
    def test_valid_json_and_span_accounting(self, small_db, tmp_path):
        app, meta = small_db
        tracer = Tracer()
        result = EventQuerySimulator().run(
            app, meta, max_pages_per_channel=16, tracer=tracer
        )
        assert result.total_seconds > 0
        path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        x = [e for e in events if e["ph"] == "X"]
        i = [e for e in events if e["ph"] == "i"]
        m = [e for e in events if e["ph"] == "M"]
        assert len(x) == tracer.span_count
        assert len(i) == len(tracer.instants)
        assert len(events) == len(x) + len(i) + len(m)
        # sim.event instants reconcile with the simulator's own counter
        sim_events = [e for e in i if e.get("cat") == "sim.event"]
        assert len(sim_events) == tracer.count("sim.event")

    def test_metadata_names_every_track(self):
        t = Tracer()
        track = t.track("channel 0", "bus")
        t.complete(track, "xfer", 0.0, 1.0, cat="ssd.bus")
        doc = chrome_trace(t)
        names = {
            (e["pid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert (track.pid, "channel 0") in names
        threads = {
            (e["pid"], e["tid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert (track.pid, track.tid, "bus") in threads

    def test_timestamps_in_microseconds(self):
        t = Tracer()
        track = t.track("p", "t")
        t.complete(track, "s", 0.5, 0.25)
        doc = chrome_trace(t)
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert span["ts"] == pytest.approx(0.5e6)
        assert span["dur"] == pytest.approx(0.25e6)
