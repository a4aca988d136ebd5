"""Replica resync: catch-up replay of missed epochs from the WAL.

When a replica restarts after an outage it is stale, not empty: it
holds the state as of the epoch it went down at.  The cheap path is to
replay only the mutating WAL records in ``(down_epoch, current_epoch]``
— :meth:`~repro.recovery.wal.WriteAheadLog.records_in_epochs`.  That
only works while the WAL still retains those epochs; once checkpoint
truncation has dropped them the replica must instead ship the latest
checkpoint image and replay the (short) suffix after it.

:func:`plan_resync` picks the path and prices it with the same measured
SSD models recovery uses, so the cluster harness can charge resync time
into MTTR honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.recovery.checkpoint import Checkpoint, checkpoint_read_seconds
from repro.recovery.durable import APPLY_SECONDS_PER_RECORD
from repro.recovery.wal import WriteAheadLog
from repro.ssd.ssd import Ssd


@dataclass(frozen=True)
class ResyncPlan:
    """One replica's priced catch-up plan."""

    #: True when the WAL no longer retains the missed epochs and the
    #: replica must ship the checkpoint image instead
    full_snapshot: bool
    records: int
    nbytes: int
    seconds: float


def plan_resync(
    wal: WriteAheadLog,
    checkpoint: Optional[Checkpoint],
    ssd: Ssd,
    down_epoch: int,
    current_epoch: int,
    apply_seconds_per_record: float = APPLY_SECONDS_PER_RECORD,
) -> ResyncPlan:
    """Price the catch-up replay for a replica stale at ``down_epoch``."""
    if current_epoch < down_epoch:
        raise ValueError("current_epoch must be >= down_epoch")
    records = wal.records_in_epochs(down_epoch, current_epoch)
    covered = {r.epoch for r in records}
    missing = [
        e for e in range(down_epoch + 1, current_epoch + 1) if e not in covered
    ]
    if missing and checkpoint is not None and checkpoint.epoch > down_epoch:
        # truncation dropped part of the gap: ship the checkpoint, then
        # replay only the records past it
        suffix = tuple(r for r in records if r.epoch > checkpoint.epoch)
        nbytes = checkpoint.nbytes + sum(r.nbytes for r in suffix)
        seconds = (
            checkpoint_read_seconds(ssd, checkpoint)
            + ssd.host_read_seconds(sum(r.nbytes for r in suffix))
            + len(suffix) * apply_seconds_per_record
        )
        return ResyncPlan(
            full_snapshot=True,
            records=len(suffix),
            nbytes=nbytes,
            seconds=seconds,
        )
    nbytes = sum(r.nbytes for r in records)
    return ResyncPlan(
        full_snapshot=False,
        records=len(records),
        nbytes=nbytes,
        seconds=ssd.host_read_seconds(nbytes)
        + len(records) * apply_seconds_per_record,
    )
