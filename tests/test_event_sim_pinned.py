"""Pinned outputs of the three event-driven page simulators.

``EventQuerySimulator.run``, ``InStorageAccelerator.simulate_stripe_scan``
and ``simulate_chip_channel`` stream flash pages through a bounded
FLASH_DFV queue into an accelerator.  The perf gate reaches them only
fault-free and untraced, so this test pins everything they emit over a
small input matrix — faults, queue depths, routed page subsets, tracer
spans/instants and metrics snapshots — as one SHA-256 per simulator.
Any change to event order, timing, trace records or counters moves a
digest.
"""

import dataclasses
import hashlib
import numbers

import pytest

from repro.core.accelerator import InStorageAccelerator
from repro.core.event_query import EventQuerySimulator, simulate_chip_channel
from repro.core.placement import CHANNEL_LEVEL
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import ComponentFailure
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.ssd import Ssd, SsdConfig
from repro.workloads import get_app

APPS = ("tir", "textqa")
#: 600 rows put two or three pages on a channel; 12,000 rows fill the
#: queue and cross the chip-level weight-broadcast window
ROWS = (600, 12_000)
QUEUE_DEPTHS = (2, 8)
PLANS = {
    "none": None,
    "retries": FaultPlan(read_retry_rate=0.3, crc_error_rate=0.2),
    "dead_chip": FaultPlan().with_failure(
        ComponentFailure(kind="chip", channel=0, chip=0)
    ),
    "dead_accel": FaultPlan().fail_accelerator(2),
}

PINNED = {
    "event_query": "e54293f4c1b10afb7ef80c35f689af8634d85ca52ccc993ffcd86563e4ede8b4",
    "stripe_scan": "4e0d5a24a13c760d68c81f7ce81f08d3ffb314f9a83a1adf5bc640a30b617db0",
    "chip_channel": "1c4f8a9dd4faabc5a8c3b136d96e03a4af1f3176abd452a8d8b3ffad10ef752b",
}


def _canon(obj):
    """Builtin-only, version-stable view of a result or trace record."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, _canon(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        return tuple(sorted((str(k), _canon(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def _record(digest, result, tracer, metrics):
    for part in (result, tracer.spans, tracer.instants, metrics.snapshot()):
        digest.update(repr(_canon(part)).encode())


def _metas():
    for app_name in APPS:
        app = get_app(app_name)
        for rows in ROWS:
            meta = Ssd().ftl.create_database(app.feature_bytes, rows)
            yield f"{app_name}/{rows}", app, meta


def _injector(plan, metrics):
    if plan is None:
        return None
    return FaultInjector(plan=plan, seed=7, metrics=metrics)


def _event_query_digest() -> str:
    digest = hashlib.sha256()
    for label, app, meta in _metas():
        for depth in QUEUE_DEPTHS:
            for plan_name, plan in PLANS.items():
                for offsets in (None, range(0, meta.total_pages, 3)):
                    tracer, metrics = Tracer(), MetricsRegistry()
                    result = EventQuerySimulator(queue_depth=depth).run(
                        app, meta, injector=_injector(plan, metrics),
                        tracer=tracer, metrics=metrics, page_offsets=offsets,
                        max_pages_per_channel=16,
                    )
                    digest.update(f"{label}/{depth}/{plan_name}".encode())
                    _record(digest, result, tracer, metrics)
    return digest.hexdigest()


def _stripe_scan_digest() -> str:
    digest = hashlib.sha256()
    for label, app, meta in _metas():
        accel = InStorageAccelerator(CHANNEL_LEVEL, SsdConfig(), app.build_scn())
        for depth in QUEUE_DEPTHS:
            for plan_name, plan in PLANS.items():
                for channel in (0, 2):
                    tracer, metrics = Tracer(), MetricsRegistry()
                    result = accel.simulate_stripe_scan(
                        meta, channel=channel, queue_depth=depth,
                        injector=_injector(plan, metrics), tracer=tracer,
                    )
                    digest.update(f"{label}/{depth}/{plan_name}".encode())
                    _record(digest, result, tracer, metrics)
    return digest.hexdigest()


def _chip_channel_digest() -> str:
    digest = hashlib.sha256()
    for label, app, meta in _metas():
        for depth in QUEUE_DEPTHS:
            for offsets in (None, range(0, meta.total_pages, 2)):
                for channel in (0, 5):
                    tracer = Tracer()
                    result = simulate_chip_channel(
                        app, meta, channel=channel, queue_depth=depth,
                        tracer=tracer, page_offsets=offsets,
                    )
                    digest.update(f"{label}/{depth}/{channel}".encode())
                    _record(digest, result, tracer, MetricsRegistry())
    return digest.hexdigest()


DIGESTS = {
    "event_query": _event_query_digest,
    "stripe_scan": _stripe_scan_digest,
    "chip_channel": _chip_channel_digest,
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_match_pinned_digest(name):
    assert DIGESTS[name]() == PINNED[name]
