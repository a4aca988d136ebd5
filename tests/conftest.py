"""Shared fixtures for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baseline import GpuSsdSystem
from repro.core.deepstore import DeepStoreSystem
from repro.ssd import Ssd, SsdConfig
from repro.workloads import ALL_APPS, get_app


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def ssd() -> Ssd:
    return Ssd()


@pytest.fixture
def ssd_config() -> SsdConfig:
    return SsdConfig()


@pytest.fixture
def baseline() -> GpuSsdSystem:
    return GpuSsdSystem()


@pytest.fixture(params=list(ALL_APPS.keys()))
def app(request):
    """Parameterized over all five Table-1 applications."""
    return get_app(request.param)


@pytest.fixture
def tir_app():
    return get_app("tir")


@pytest.fixture
def channel_system() -> DeepStoreSystem:
    return DeepStoreSystem.at_level("channel")


def make_db(ssd: Ssd, feature_bytes: int, gigabytes: float = 25.0):
    """A paper-scale feature database (25 GB by default, §6.1)."""
    count = int(gigabytes * 1e9 / feature_bytes)
    return ssd.ftl.create_database(feature_bytes, count)


def traced_peak_mb(fn) -> float:
    """Peak Python-heap MB (numpy buffers included) while ``fn()`` runs."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not outer:
            tracemalloc.stop()
