"""Write-ahead log for mutable feature stores, on real flash.

A :class:`~repro.ingest.store.MutableFeatureStore` keeps epochs,
tombstones, and the delta region in memory only — a restart loses the
database.  :class:`WriteAheadLog` fixes that with the classic recipe:
every mutation is serialized into a :class:`WalRecord` and programmed to
flash **before** it is applied, so after a crash the durable prefix of
the log (plus the last checkpoint) reconstructs the store bit-exactly.

The flash is not assumed, it is *measured*: the log occupies its own
bounded region of a :class:`~repro.ingest.writepath.IngestWritePath`
(the page-mapped, GC-running FTL).  Records pack into fixed-size
**slots** (``record_bytes`` each; a record spans as many slots as its
header + ids + payload need), and every append re-programs the open
page — which is exactly where a synchronous WAL earns its write
amplification: small commits re-write the same flash page over and
over, and checkpoint truncation TRIMs dead log pages for GC to reclaim.
``WriteAheadLog.write_amplification`` is the FTL's own arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ingest.store import IngestError
from repro.ingest.writepath import IngestWritePath, WriteOp

#: WAL record kinds (the store's two mutation ops plus the compaction
#: marker, which moves the clustered boundary without advancing epochs)
WAL_OPS = ("insert", "delete", "compact")

#: fixed per-record header charge: lsn + epoch + op + id count (bytes)
_HEADER_BYTES = 28


class RecoveryError(RuntimeError):
    """Raised for invalid WAL/checkpoint/recovery operations."""


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry.

    ``payload`` carries the inserted rows for ``insert`` records (the
    bytes a real WAL would write; deletes and compacts are metadata
    only).  ``compact_epoch`` names the snapshot a ``compact`` record
    re-clustered.  Records are immutable and totally ordered by
    ``lsn``.
    """

    lsn: int
    epoch: int
    op: str
    ids: Tuple[int, ...] = ()
    payload: Optional[np.ndarray] = None
    compact_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in WAL_OPS:
            raise RecoveryError(f"unknown WAL op {self.op!r}")
        if self.op == "insert" and self.payload is None:
            raise RecoveryError("insert records need a row payload")
        if self.op == "compact" and self.compact_epoch is None:
            raise RecoveryError("compact records need a snapshot epoch")

    @property
    def nbytes(self) -> int:
        """Serialized size the flash write path is charged for."""
        payload = 0 if self.payload is None else self.payload.nbytes
        return _HEADER_BYTES + 8 * len(self.ids) + payload


class WriteAheadLog:
    """An append-only record log over a bounded flash region.

    ``writepath`` is a dedicated :class:`IngestWritePath` whose
    ``feature_bytes`` is the slot size; the WAL never shares a region
    with the database (mirroring real deployments, where log and data
    placement are separated precisely so log churn cannot amplify data
    GC).
    """

    def __init__(self, writepath: IngestWritePath):
        self.writepath = writepath
        self.slot_bytes = writepath.feature_bytes
        self._records: List[WalRecord] = []
        #: lsn -> slot ids occupied (needed to TRIM at truncation)
        self._slots: List[Tuple[int, Tuple[int, ...]]] = []
        self._next_lsn = 1
        self._next_slot = 0
        #: records dropped by truncation (still counted in totals)
        self.truncated_records = 0
        self.append_seconds = 0.0
        self.truncate_seconds = 0.0
        self.bytes_logged = 0

    # ------------------------------------------------------------------
    @property
    def records(self) -> Tuple[WalRecord, ...]:
        """Durable records still in the log, lsn order."""
        return tuple(self._records)

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def write_amplification(self) -> float:
        """The log region FTL's own measured WA."""
        return self.writepath.write_amplification

    def slots_for(self, record: WalRecord) -> int:
        """Flash slots one record occupies (ceil of bytes / slot)."""
        return max(1, -(-record.nbytes // self.slot_bytes))

    # ------------------------------------------------------------------
    def append(
        self,
        op: str,
        epoch: int,
        ids: Tuple[int, ...] = (),
        payload: Optional[np.ndarray] = None,
        compact_epoch: Optional[int] = None,
    ) -> Tuple[WalRecord, WriteOp]:
        """Durably log one record; returns it plus the measured write.

        The program completes (synchronous commit) before the caller
        applies the mutation — the ordering every crash-recovery proof
        in the test suite leans on.
        """
        record = WalRecord(
            lsn=self._next_lsn,
            epoch=epoch,
            op=op,
            ids=tuple(int(i) for i in ids),
            payload=(
                None
                if payload is None
                else np.ascontiguousarray(payload, dtype=np.float32)
            ),
            compact_epoch=compact_epoch,
        )
        slots = tuple(
            range(self._next_slot, self._next_slot + self.slots_for(record))
        )
        try:
            write = self.writepath.append(slots)
        except IngestError as exc:
            raise RecoveryError(
                f"WAL region full at lsn {record.lsn} "
                f"(checkpoint more often or grow the region): {exc}"
            ) from exc
        self._next_slot += len(slots)
        self._next_lsn += 1
        self._records.append(record)
        self._slots.append((record.lsn, slots))
        self.append_seconds += write.seconds
        self.bytes_logged += record.nbytes
        return record, write

    def truncate_through(self, lsn: int) -> Optional[WriteOp]:
        """Drop records with ``record.lsn <= lsn`` (checkpoint covered).

        TRIMs their slots so the log region's GC reclaims the pages;
        returns the measured op (None when nothing was dropped).
        """
        doomed_slots: List[int] = []
        keep_records: List[WalRecord] = []
        keep_slots: List[Tuple[int, Tuple[int, ...]]] = []
        for record, (rec_lsn, slots) in zip(self._records, self._slots):
            if rec_lsn <= lsn:
                doomed_slots.extend(slots)
                self.truncated_records += 1
            else:
                keep_records.append(record)
                keep_slots.append((rec_lsn, slots))
        if not doomed_slots:
            return None
        self._records = keep_records
        self._slots = keep_slots
        op = self.writepath.delete(doomed_slots)
        self.truncate_seconds += op.seconds
        return op

    def records_in_epochs(
        self, after_epoch: int, through_epoch: int
    ) -> Tuple[WalRecord, ...]:
        """Mutating records with ``after_epoch < epoch <= through_epoch``.

        The catch-up set a restarted replica replays to resync.
        """
        return tuple(
            r
            for r in self._records
            if r.op != "compact" and after_epoch < r.epoch <= through_epoch
        )
