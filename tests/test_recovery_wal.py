"""Unit tests for the WAL, checkpoints, and replay-based recovery.

The property suite (``test_recovery_properties``) carries the
crash-anywhere proof; this file pins the mechanics: slot packing,
measured write amplification, truncation TRIM, region exhaustion,
checkpoint cadence, two-phase ordering, and the recovery report's
cost arithmetic.
"""

import numpy as np
import pytest

from repro.recovery import (
    CheckpointPolicy,
    DurableStore,
    RecoveryError,
    WalConfig,
    WalRecord,
    WriteAheadLog,
    recover,
    take_checkpoint,
)
from repro.ingest.writepath import IngestWritePath
from repro.ssd.ssd import Ssd


def _wal(slot_bytes=64, blocks=8, pages_per_block=8):
    return WriteAheadLog(
        IngestWritePath(
            Ssd(), slot_bytes, blocks=blocks, pages_per_block=pages_per_block
        )
    )


def _rows(n, dim=4, seed=0):
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(
        np.float32
    )


class TestWalRecord:
    def test_insert_needs_payload(self):
        with pytest.raises(RecoveryError):
            WalRecord(lsn=1, epoch=1, op="insert", ids=(0,))

    def test_compact_needs_epoch(self):
        with pytest.raises(RecoveryError):
            WalRecord(lsn=1, epoch=1, op="compact")

    def test_unknown_op_rejected(self):
        with pytest.raises(RecoveryError):
            WalRecord(lsn=1, epoch=1, op="upsert")

    def test_nbytes_counts_header_ids_payload(self):
        payload = _rows(2, dim=4)
        record = WalRecord(
            lsn=1, epoch=1, op="insert", ids=(0, 1), payload=payload
        )
        assert record.nbytes == 28 + 8 * 2 + payload.nbytes


class TestWriteAheadLog:
    def test_append_assigns_monotonic_lsns(self):
        wal = _wal()
        for i in range(3):
            record, write = wal.append("delete", i + 1, ids=(i,))
            assert record.lsn == i + 1
            assert write.seconds > 0
        assert wal.last_lsn == 3
        assert [r.lsn for r in wal.records] == [1, 2, 3]

    def test_records_span_slots_by_size(self):
        wal = _wal(slot_bytes=64)
        small, _ = wal.append("delete", 1, ids=(0,))
        big, _ = wal.append("insert", 2, ids=(1, 2), payload=_rows(2, dim=32))
        assert wal.slots_for(small) == 1
        # 28 + 16 + 2*32*4 = 300 bytes -> 5 slots of 64
        assert wal.slots_for(big) == 5

    def test_write_amplification_is_measured_not_assumed(self):
        wal = _wal(slot_bytes=64)
        total_slots = 0
        for i in range(40):
            record, _ = wal.append("delete", i + 1, ids=(i,))
            total_slots += wal.slots_for(record)
        # the FTL's own arithmetic, not a constant baked into the WAL
        stats = wal.writepath.stats
        assert wal.write_amplification == stats.write_amplification
        assert wal.write_amplification >= 1.0
        # synchronous commits re-program the open page on every append:
        # far more page programs than the records' slots strictly need
        min_pages = -(-total_slots // wal.writepath.rows_per_page)
        assert stats.host_writes >= 40 > min_pages
        assert wal.bytes_logged == sum(r.nbytes for r in wal.records)

    def test_truncate_drops_prefix_and_trims(self):
        wal = _wal()
        for i in range(5):
            wal.append("delete", i + 1, ids=(i,))
        op = wal.truncate_through(3)
        assert op is not None and op.seconds >= 0
        assert [r.lsn for r in wal.records] == [4, 5]
        assert wal.truncated_records == 3
        assert wal.truncate_through(3) is None  # idempotent

    def test_records_after_and_in_epochs(self):
        wal = _wal()
        wal.append("insert", 1, ids=(0,), payload=_rows(1))
        wal.append("compact", 1, compact_epoch=1)
        wal.append("delete", 2, ids=(0,))
        # resync replay skips compact markers
        assert [r.epoch for r in wal.records_in_epochs(0, 2)] == [1, 2]

    def test_region_full_raises_recovery_error(self):
        wal = _wal(blocks=4, pages_per_block=2)
        with pytest.raises(RecoveryError, match="WAL region full"):
            for i in range(10_000):
                wal.append("delete", i + 1, ids=(i,))


class TestCheckpoint:
    def test_restore_round_trips_state(self):
        store = DurableStore(_rows(8))
        store.insert(_rows(2, seed=1))
        store.delete([0])
        checkpoint = take_checkpoint(store.store, 1, store.wal.last_lsn, 0.5)
        restored = checkpoint.restore()
        assert store.store.state_equal(restored)
        assert checkpoint.epoch == store.store.epoch
        assert checkpoint.nbytes > 0

    def test_cadence_needs_both_time_and_epochs(self):
        policy = CheckpointPolicy(interval_s=1.0, min_epochs=2)
        store = DurableStore(_rows(8), policy=policy)
        store.insert(_rows(1), now_s=5.0)  # 1 epoch: too few
        assert store.checkpoints_taken == 0
        store.insert(_rows(1), now_s=0.5)  # 2 epochs but too soon
        assert store.checkpoints_taken == 0
        store.insert(_rows(1), now_s=5.0)
        assert store.checkpoints_taken == 1
        # checkpoint truncated the fully-applied log
        assert store.wal.records == ()


class TestDurableStore:
    def test_two_phase_must_apply_in_log_order(self):
        store = DurableStore(_rows(8))
        first = store.begin_insert(_rows(1, seed=1))
        second = store.begin_delete([0])
        with pytest.raises(RecoveryError, match="log order"):
            store.apply_pending(second)
        store.apply_pending(first)
        store.apply_pending(second)
        with pytest.raises(RecoveryError, match="already applied"):
            store.apply_pending(second)

    def test_ack_advances_at_program_completion(self):
        store = DurableStore(_rows(8))
        assert store.acked_epoch == 0
        pending = store.begin_insert(_rows(1, seed=1))
        # committed (acked) even though the store has not applied it
        assert store.acked_epoch == 1
        assert store.store.epoch == 0
        store.apply_pending(pending)
        assert store.store.epoch == 1

    def test_logged_but_unapplied_mutation_survives_crash(self):
        store = DurableStore(_rows(8))
        store.begin_insert(np.ones((1, 4), dtype=np.float32))
        recovered, report = recover(store.crash_image())
        # the ack made it durable: replay applies it
        assert recovered.store.epoch == 1
        assert report.records_replayed == 1
        assert 8 in [int(i) for i in recovered.store.visible_ids()]

    def test_recovered_store_keeps_operating(self):
        store = DurableStore(
            _rows(8), policy=CheckpointPolicy(interval_s=1e-9, min_epochs=1)
        )
        store.insert(_rows(2, seed=1), now_s=1.0)
        recovered, _ = recover(store.crash_image(), policy=store.policy)
        assert store.store.state_equal(recovered.store)
        # lsn continuity: new records never reuse old lsns
        before = recovered.wal.last_lsn
        recovered.insert(_rows(1, seed=2), now_s=2.0)
        assert recovered.wal.last_lsn == before + 1

    def test_recovery_report_prices_every_stage(self):
        store = DurableStore(
            _rows(64, dim=16),
            policy=CheckpointPolicy(interval_s=1e-9, min_epochs=1),
        )
        store.insert(_rows(4, dim=16, seed=1), now_s=1.0)  # checkpointed
        store.insert(_rows(4, dim=16, seed=2), now_s=1.0)  # replayed
        _, report = recover(store.crash_image())
        assert report.checkpoint_epoch == 1
        assert report.recovered_epoch == 2
        assert report.records_replayed == 1
        assert report.checkpoint_read_seconds > 0
        assert report.wal_read_seconds > 0
        assert report.apply_seconds > 0
        assert report.seconds == pytest.approx(
            report.checkpoint_read_seconds
            + report.wal_read_seconds
            + report.apply_seconds
        )

    def test_crash_image_truncation_seam(self):
        store = DurableStore(_rows(8))
        store.insert(_rows(1, seed=1))
        store.insert(_rows(1, seed=2))
        image = store.crash_image()
        earlier = image.truncated(1)
        recovered, _ = recover(earlier)
        assert recovered.store.epoch == 1

    def test_wal_config_controls_region(self):
        cfg = WalConfig(slot_bytes=32, blocks=4, pages_per_block=4)
        store = DurableStore(_rows(8), wal_config=cfg)
        assert store.wal.slot_bytes == 32
