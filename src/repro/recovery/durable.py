"""Crash-durable wrapper around the mutable feature store.

:class:`DurableStore` binds the three recovery mechanisms together:

* every mutation is **WAL-first** — the record's flash program
  (:class:`~repro.recovery.wal.WriteAheadLog`) completes before the
  in-memory store applies it, and the program's completion is the
  commit point (``acked_epoch`` advances exactly then);
* **checkpoints** (:class:`~repro.recovery.checkpoint.Checkpoint`)
  bound the replay suffix and let the WAL truncate;
* :func:`recover` rebuilds a store from the durable image alone
  (checkpoint + WAL suffix) — **bit-exactly**: epochs, tombstones,
  row data, and the clustered/delta boundary all round-trip, which the
  hypothesis suite proves against the independent oracle replay.

The split ``begin_* `` / ``apply_pending`` API exists for the DES crash
driver: logging and applying are separate simulated events, so a crash
can land *between* them — the recovered store must then contain the
logged-but-unapplied mutation (it was acked), which replay guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ingest.store import MutableFeatureStore, Snapshot
from repro.ingest.writepath import IngestWritePath, WriteOp
from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointPolicy,
    checkpoint_read_seconds,
    checkpoint_write_seconds,
    take_checkpoint,
)
from repro.recovery.wal import RecoveryError, WalRecord, WriteAheadLog
from repro.ssd.ssd import Ssd

#: modelled CPU cost of applying one replayed record to the store
APPLY_SECONDS_PER_RECORD = 2e-6


@dataclass(frozen=True)
class WalConfig:
    """The WAL's flash region and slot packing."""

    slot_bytes: int = 64
    blocks: int = 32
    pages_per_block: int = 32
    op_fraction: float = 0.07


@dataclass
class PendingMutation:
    """A logged-but-not-yet-applied mutation (the commit already
    happened — the WAL program completed)."""

    record: WalRecord
    write: WriteOp
    applied: bool = False


@dataclass(frozen=True)
class DurableImage:
    """What survives a crash: flash contents only.

    The in-memory store is deliberately absent — recovery must work
    from the checkpoint and the WAL suffix alone.
    """

    base: np.ndarray
    checkpoint: Optional[Checkpoint]
    records: Tuple[WalRecord, ...]
    next_lsn: int
    wal_config: WalConfig

    def truncated(self, n_records: int) -> "DurableImage":
        """An image as if the crash hit after only ``n_records`` WAL
        programs had completed (test seam for crash-point sweeps)."""
        records = self.records[: max(0, n_records)]
        next_lsn = records[-1].lsn + 1 if records else (
            self.checkpoint.wal_lsn + 1 if self.checkpoint else 1
        )
        return DurableImage(
            base=self.base,
            checkpoint=self.checkpoint,
            records=records,
            next_lsn=next_lsn,
            wal_config=self.wal_config,
        )


@dataclass
class RecoveryReport:
    """What one replay-based restart did and what it cost."""

    checkpoint_epoch: int
    recovered_epoch: int
    records_replayed: int
    checkpoint_read_seconds: float
    wal_read_seconds: float
    apply_seconds: float

    @property
    def seconds(self) -> float:
        """Total restart time (the recovery share of MTTR)."""
        return (
            self.checkpoint_read_seconds
            + self.wal_read_seconds
            + self.apply_seconds
        )


def apply_record(store: MutableFeatureStore, record: WalRecord) -> None:
    """Apply one WAL record to a store, asserting log discipline.

    Inserts and deletes must land at exactly the next epoch with
    exactly the logged ids — any divergence means the log and the
    store disagree, which replay must refuse to paper over.
    """
    if record.op == "insert":
        if record.epoch != store.epoch + 1:
            raise RecoveryError(
                f"insert record epoch {record.epoch} != next epoch "
                f"{store.epoch + 1}"
            )
        assert record.payload is not None  # enforced at record creation
        ids = store.insert(record.payload)
        if tuple(int(i) for i in ids) != record.ids:
            raise RecoveryError(
                f"replayed insert assigned ids {tuple(ids)!r} != logged "
                f"{record.ids!r}"
            )
    elif record.op == "delete":
        if record.epoch != store.epoch + 1:
            raise RecoveryError(
                f"delete record epoch {record.epoch} != next epoch "
                f"{store.epoch + 1}"
            )
        store.delete(record.ids)
    elif record.op == "compact":
        assert record.compact_epoch is not None
        store.mark_compacted(store.snapshot_at(record.compact_epoch))
    else:  # pragma: no cover - WalRecord validates op
        raise RecoveryError(f"unknown WAL op {record.op!r}")


class DurableStore:
    """A :class:`MutableFeatureStore` that survives crashes."""

    def __init__(
        self,
        base: np.ndarray,
        ssd: Optional[Ssd] = None,
        policy: Optional[CheckpointPolicy] = None,
        wal_config: Optional[WalConfig] = None,
    ):
        base = np.asarray(base, dtype=np.float32)
        self.ssd = ssd if ssd is not None else Ssd()
        self.policy = policy or CheckpointPolicy()
        self.wal_config = wal_config or WalConfig()
        self.store = MutableFeatureStore(base)
        self._base = base.copy()
        self.wal = WriteAheadLog(self._make_writepath())
        self.last_checkpoint: Optional[Checkpoint] = None
        self._next_checkpoint_id = 1
        self._last_checkpoint_epoch = 0
        self.checkpoints_taken = 0
        self.checkpoint_seconds = 0.0
        #: highest epoch whose WAL program has completed (the commit
        #: high-water mark — everything at or below it must survive)
        self.acked_epoch = 0
        self._pending: List[PendingMutation] = []

    def _make_writepath(self) -> IngestWritePath:
        cfg = self.wal_config
        return IngestWritePath(
            self.ssd,
            cfg.slot_bytes,
            op_fraction=cfg.op_fraction,
            blocks=cfg.blocks,
            pages_per_block=cfg.pages_per_block,
        )

    # ------------------------------------------------------------------
    # two-phase mutations (log, then apply)
    # ------------------------------------------------------------------
    def _next_epoch(self) -> int:
        # acked_epoch leads store.epoch while mutations are pending, so
        # overlapping two-phase commits still get distinct epochs
        return max(self.store.epoch, self.acked_epoch) + 1

    def begin_insert(self, features: np.ndarray) -> PendingMutation:
        """Durably log an insert; the store applies it later."""
        features = np.asarray(features, dtype=np.float32)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        # pre-assign ids past every pending (acked, unapplied) insert
        first = self.store.n_rows + sum(
            len(p.record.ids)
            for p in self._pending
            if p.record.op == "insert"
        )
        ids = tuple(range(first, first + features.shape[0]))
        record, write = self.wal.append(
            "insert", self._next_epoch(), ids=ids, payload=features
        )
        return self._commit(record, write)

    def begin_delete(self, ids) -> PendingMutation:
        """Durably log a delete; the store applies it later."""
        record, write = self.wal.append(
            "delete", self._next_epoch(), ids=tuple(int(i) for i in ids)
        )
        return self._commit(record, write)

    def _commit(self, record: WalRecord, write: WriteOp) -> PendingMutation:
        pending = PendingMutation(record=record, write=write)
        self._pending.append(pending)
        self.acked_epoch = record.epoch
        return pending

    def apply_pending(self, pending: PendingMutation) -> Tuple[int, ...]:
        """Apply one committed mutation to the in-memory store."""
        if pending.applied:
            raise RecoveryError("mutation already applied")
        if self._pending and self._pending[0] is not pending:
            raise RecoveryError("mutations must apply in log order")
        apply_record(self.store, pending.record)
        pending.applied = True
        self._pending.pop(0)
        return pending.record.ids

    # ------------------------------------------------------------------
    # one-shot mutations (log + apply, the common path)
    # ------------------------------------------------------------------
    def insert(self, features: np.ndarray, now_s: float = 0.0) -> np.ndarray:
        """Log + apply an insert; returns the assigned ids."""
        pending = self.begin_insert(features)
        ids = self.apply_pending(pending)
        self.maybe_checkpoint(now_s)
        return np.asarray(ids, dtype=np.int64)

    def delete(self, ids, now_s: float = 0.0) -> None:
        """Log + apply a delete of currently visible ids."""
        pending = self.begin_delete(ids)
        self.apply_pending(pending)
        self.maybe_checkpoint(now_s)

    def mark_compacted(self, snapshot: Snapshot, now_s: float = 0.0) -> int:
        """Log the compaction marker, then move the clustered boundary.

        Logged *before* applying (like every mutation): a crash after
        the program replays the compaction; a crash before it loses
        only the marker, never data — compaction does not change
        visibility.
        """
        self.wal.append(
            "compact", self.store.epoch, compact_epoch=snapshot.epoch
        )
        reclaimed = self.store.mark_compacted(snapshot)
        self.maybe_checkpoint(now_s)
        return reclaimed

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoint_due(self, now_s: float) -> bool:
        """Whether the policy calls for a checkpoint right now."""
        last_s = (
            self.last_checkpoint.taken_at_s if self.last_checkpoint else 0.0
        )
        return (
            now_s - last_s >= self.policy.interval_s
            and self.store.epoch - self._last_checkpoint_epoch
            >= self.policy.min_epochs
        )

    def maybe_checkpoint(self, now_s: float) -> Optional[Checkpoint]:
        """Checkpoint if due (the mutation paths call this)."""
        if not self.checkpoint_due(now_s):
            return None
        return self.checkpoint(now_s)

    def checkpoint(self, now_s: float) -> Checkpoint:
        """Freeze the applied state; truncate the WAL behind it.

        Only fully-applied mutations are covered: the checkpoint's
        ``wal_lsn`` stops at the first still-pending record, so a crash
        mid-two-phase never loses the unapplied suffix.
        """
        covered_lsn = (
            self._pending[0].record.lsn - 1
            if self._pending
            else self.wal.last_lsn
        )
        checkpoint = take_checkpoint(
            self.store, self._next_checkpoint_id, covered_lsn, now_s
        )
        self._next_checkpoint_id += 1
        self.checkpoint_seconds += checkpoint_write_seconds(self.ssd, checkpoint)
        self.wal.truncate_through(covered_lsn)
        self.last_checkpoint = checkpoint
        self._last_checkpoint_epoch = checkpoint.epoch
        self.checkpoints_taken += 1
        return checkpoint

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def crash_image(self) -> DurableImage:
        """The durable state a crash right now would leave on flash."""
        return DurableImage(
            base=self._base,
            checkpoint=self.last_checkpoint,
            records=self.wal.records,
            next_lsn=self.wal.last_lsn + 1,
            wal_config=self.wal_config,
        )


def recover(
    image: DurableImage,
    ssd: Optional[Ssd] = None,
    policy: Optional[CheckpointPolicy] = None,
    apply_seconds_per_record: float = APPLY_SECONDS_PER_RECORD,
) -> Tuple[DurableStore, RecoveryReport]:
    """Replay-based restart: durable image in, live store out.

    Restores the checkpoint (or the base database), replays the WAL
    suffix in lsn order, and returns a fully re-armed
    :class:`DurableStore` (fresh WAL region re-seeded with the
    surviving records at zero modelled cost — they are already on
    flash) plus the measured :class:`RecoveryReport`.
    """
    ssd = ssd if ssd is not None else Ssd()
    checkpoint_read_s = 0.0
    if image.checkpoint is not None:
        store = image.checkpoint.restore()
        covered_lsn = image.checkpoint.wal_lsn
        checkpoint_read_s = checkpoint_read_seconds(ssd, image.checkpoint)
        checkpoint_epoch = image.checkpoint.epoch
    else:
        store = MutableFeatureStore(image.base)
        covered_lsn = 0
        checkpoint_epoch = 0

    replayed = 0
    replay_bytes = 0
    for record in image.records:
        if record.lsn <= covered_lsn:
            continue
        apply_record(store, record)
        replayed += 1
        replay_bytes += record.nbytes

    recovered = DurableStore(
        image.base, ssd=ssd, policy=policy, wal_config=image.wal_config
    )
    recovered.store = store
    recovered.last_checkpoint = image.checkpoint
    recovered._last_checkpoint_epoch = checkpoint_epoch
    recovered._next_checkpoint_id = (
        image.checkpoint.checkpoint_id + 1 if image.checkpoint else 1
    )
    recovered.acked_epoch = store.epoch
    # re-seed the WAL region with the surviving records (already on
    # flash — the re-programs model nothing, so the counters are zeroed)
    wal = recovered.wal
    for record in image.records:
        slots = tuple(
            range(wal._next_slot, wal._next_slot + wal.slots_for(record))
        )
        wal.writepath.append(slots)
        wal._next_slot += len(slots)
        wal._records.append(record)
        wal._slots.append((record.lsn, slots))
    wal.writepath.reset_stats()
    wal.append_seconds = 0.0
    wal._next_lsn = image.next_lsn

    report = RecoveryReport(
        checkpoint_epoch=checkpoint_epoch,
        recovered_epoch=store.epoch,
        records_replayed=replayed,
        checkpoint_read_seconds=checkpoint_read_s,
        wal_read_seconds=ssd.host_read_seconds(replay_bytes),
        apply_seconds=replayed * apply_seconds_per_record,
    )
    return recovered, report
