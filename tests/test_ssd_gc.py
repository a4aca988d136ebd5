"""Tests for the page-mapped write path (GC + wear leveling)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ssd.gc import GcError, PageMappedFtl


def make_ftl(blocks=16, pages=32, op=0.2, **kw):
    logical = int(blocks * pages * (1 - op))
    logical = min(logical, blocks * pages - 2 * pages)
    return PageMappedFtl(blocks, pages, logical, **kw)


def _wear_imbalance(ftl):
    """Max/mean erase count over the FTL's blocks (1.0 = perfectly level)."""
    counts = [b.erase_count for b in ftl._blocks]
    mean = sum(counts) / len(counts)
    return max(counts) / mean if mean else 1.0


class TestBasicWritePath:
    def test_write_then_lookup(self):
        ftl = make_ftl()
        ftl.write(5)
        assert ftl.lookup(5) is not None
        assert ftl.lookup(6) is None

    def test_overwrite_moves_page(self):
        ftl = make_ftl()
        ftl.write(5)
        first = ftl.lookup(5)
        ftl.write(5)
        second = ftl.lookup(5)
        assert first != second  # out-of-place update

    def test_trim(self):
        ftl = make_ftl()
        ftl.write(3)
        ftl.trim(3)
        assert ftl.lookup(3) is None

    def test_lpn_bounds(self):
        ftl = make_ftl()
        with pytest.raises(GcError):
            ftl.write(ftl.logical_pages)
        with pytest.raises(GcError):
            ftl.lookup(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PageMappedFtl(2, 32, 10)
        with pytest.raises(ValueError):
            PageMappedFtl(8, 32, 8 * 32)  # no over-provisioning


class TestGarbageCollection:
    def fill_and_churn(self, ftl, churn_writes, seed=0):
        rng = np.random.default_rng(seed)
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn)
        for _ in range(churn_writes):
            ftl.write(int(rng.integers(0, ftl.logical_pages)))
        return ftl

    def test_sequential_overwrite_low_amplification(self):
        ftl = make_ftl(op=0.2)
        for _ in range(4):
            for lpn in range(ftl.logical_pages):
                ftl.write(lpn)
        # sequential churn invalidates whole blocks: near-free GC
        assert ftl.stats.write_amplification < 1.3

    def test_random_churn_triggers_gc(self):
        ftl = self.fill_and_churn(make_ftl(op=0.25), churn_writes=4000)
        assert ftl.stats.gc_invocations > 0
        assert ftl.stats.erases > 0
        assert ftl.stats.write_amplification > 1.0

    def test_less_overprovisioning_more_amplification(self):
        tight = self.fill_and_churn(make_ftl(op=0.15), 4000)
        roomy = self.fill_and_churn(make_ftl(op=0.45), 4000)
        assert tight.stats.write_amplification > roomy.stats.write_amplification

    def test_mapping_survives_gc(self):
        ftl = make_ftl(blocks=8, pages=16, op=0.3)
        rng = np.random.default_rng(1)
        shadow = {}
        for i in range(3000):
            lpn = int(rng.integers(0, ftl.logical_pages))
            ftl.write(lpn)
            shadow[lpn] = i
        # every written lpn still resolves to exactly one live location
        locations = {}
        for lpn in shadow:
            loc = ftl.lookup(lpn)
            assert loc is not None
            assert loc not in locations.values(), "two LPNs share a slot"
            locations[lpn] = loc

    def test_free_blocks_maintained(self):
        ftl = self.fill_and_churn(make_ftl(op=0.25), 5000)
        assert ftl.free_blocks >= 1

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_never_loses_data_under_churn(self, seed):
        ftl = make_ftl(blocks=8, pages=8, op=0.3)
        rng = np.random.default_rng(seed)
        live = set()
        for _ in range(500):
            lpn = int(rng.integers(0, ftl.logical_pages))
            ftl.write(lpn)
            live.add(lpn)
        for lpn in live:
            assert ftl.lookup(lpn) is not None


class TestWearLeveling:
    def test_wear_spreads(self):
        ftl = make_ftl(blocks=12, pages=16, op=0.3, wear_weight=0.2)
        rng = np.random.default_rng(2)
        # skewed workload: 80% of writes to 20% of the space
        hot = int(ftl.logical_pages * 0.2)
        for _ in range(20_000):
            if rng.random() < 0.8:
                ftl.write(int(rng.integers(0, hot)))
            else:
                ftl.write(int(rng.integers(hot, ftl.logical_pages)))
        assert ftl.stats.erases > 20
        assert _wear_imbalance(ftl) < 2.5

    def test_wear_weight_improves_balance(self):
        def imbalance(weight):
            ftl = make_ftl(blocks=12, pages=16, op=0.3, wear_weight=weight)
            rng = np.random.default_rng(3)
            hot = int(ftl.logical_pages * 0.1)
            for _ in range(15_000):
                lpn = int(rng.integers(0, hot if rng.random() < 0.9
                                       else ftl.logical_pages))
                ftl.write(lpn)
            return _wear_imbalance(ftl)

        assert imbalance(0.3) <= imbalance(0.0) + 0.3
