"""Differential recall oracle: the index layer changes nothing it shouldn't.

Two contracts, pinned bit for bit:

* at ``nprobe = n_lists`` the IVF probe degenerates to the exhaustive
  scan — identical ids, scores, latency breakdown *and* transfer
  seconds at every accelerator level;
* down :func:`~repro.index.device.query_exhaustive` (or simply with no
  index built) the device is the seed reproduction (the whole combined perf-gate scorecard,
  pre-index legs included, is pinned by ``tests/test_perf_gate.py``).
"""

import numpy as np
import pytest

from repro.index import IndexedDevice
from repro.index.device import query_exhaustive
from repro.ingest import LifecycleDevice
from repro.workloads import get_app

APP = get_app("textqa")
DIM = APP.feature_floats
GRAPH = APP.build_scn(seed=1)
N = 256
N_LISTS = 8
K = 7


def _make(level="channel", seed=5):
    rng = np.random.default_rng(seed)
    device = IndexedDevice(level=level)
    db = device.write_db(rng.normal(0, 1, (N, DIM)).astype(np.float32))
    model = device.load_graph(GRAPH)
    return device, db, model, rng


def _probes(rng, n=3):
    return rng.normal(0, 1, (n, DIM)).astype(np.float32)


def _assert_bit_identical(routed, base):
    assert routed.feature_ids.tolist() == base.feature_ids.tolist()
    np.testing.assert_array_equal(routed.scores, base.scores)
    assert routed.latency == base.latency
    assert routed.latency.total_seconds == base.latency.total_seconds
    assert routed.transfer_seconds == base.transfer_seconds
    assert routed.object_ids.tolist() == base.object_ids.tolist()
    assert routed.cache_hit == base.cache_hit


class TestFullProbeOracle:
    """nprobe = n_lists == the exhaustive scan, per accelerator level."""

    @pytest.mark.parametrize("level", ["ssd", "channel", "chip"])
    def test_bit_identical_ids_scores_and_seconds(self, level):
        device, db, model, rng = _make(level=level)
        device.build_index(db, model, N_LISTS, iterations=4, seed=2)
        for probe in _probes(rng):
            routed = device.get_results(
                device.query(probe, K, model, db, nprobe=N_LISTS)
            )
            base = query_exhaustive(device, probe, K, model, db)
            _assert_bit_identical(routed, base)
            # routing is skipped entirely at full probe
            assert routed.routing_seconds == 0.0
            assert routed.nprobe == N_LISTS
            assert routed.probed_rows == N
            # the seed path never carries index annotations
            assert base.routing_seconds == 0.0
            assert base.nprobe == 0

    def test_bit_identical_on_subranges(self):
        device, db, model, rng = _make()
        device.build_index(db, model, N_LISTS, iterations=4, seed=2)
        probe = _probes(rng, 1)[0]
        for start, end in [(0, N), (10, 200), (64, 65)]:
            routed = device.get_results(
                device.query(probe, K, model, db, start, end, nprobe=N_LISTS)
            )
            # the exhaustive path over a range, past the index
            base = device.get_results(
                LifecycleDevice.query(device, probe, K, model, db, start, end)
            )
            _assert_bit_identical(routed, base)

    def test_oversized_nprobe_clamps_to_full_probe(self):
        device, db, model, rng = _make()
        device.build_index(db, model, N_LISTS, iterations=4, seed=2)
        probe = _probes(rng, 1)[0]
        big = device.get_results(device.query(probe, K, model, db, nprobe=999))
        full = device.get_results(
            device.query(probe, K, model, db, nprobe=N_LISTS)
        )
        _assert_bit_identical(big, full)
        assert big.nprobe == N_LISTS


class TestOffModeParity:
    """The exhaustive path is the seed path, even with an index built."""

    def test_off_mode_matches_plain_lifecycle_device(self):
        plain = LifecycleDevice()
        rng = np.random.default_rng(5)
        db_p = plain.write_db(rng.normal(0, 1, (N, DIM)).astype(np.float32))
        model_p = plain.load_graph(GRAPH)

        off, db_o, model_o, rng_o = _make()
        off.build_index(db_o, model_o, N_LISTS, iterations=4, seed=2)

        for probe in _probes(np.random.default_rng(17)):
            base = plain.get_results(plain.query(probe, K, model_p, db_p))
            got = query_exhaustive(off, probe, K, model_o, db_o)
            _assert_bit_identical(got, base)
            assert got.routing_seconds == 0.0
            assert got.nprobe == 0

    def test_unindexed_device_delegates(self):
        device, db, model, rng = _make()  # no index built
        probe = _probes(rng, 1)[0]
        result = device.get_results(device.query(probe, K, model, db))
        assert result.routing_seconds == 0.0
        assert result.nprobe == 0
        assert result.probed_rows == 0
