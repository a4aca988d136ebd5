"""Periodic checkpoints of the mutable store's logical state.

A checkpoint bounds recovery work: restart cost is *read one
checkpoint + replay the WAL suffix*, not *replay everything since
boot*.  :class:`Checkpoint` is a frozen, self-contained image of
:meth:`repro.ingest.store.MutableFeatureStore.state_tuple`;
:class:`CheckpointPolicy` decides cadence on the DES clock (seconds
between checkpoints, plus an epoch floor so idle periods don't
checkpoint no-ops); the write/read costs are charged through the SSD's
own models (:meth:`~repro.ssd.ssd.Ssd.database_write_seconds` /
:meth:`~repro.ssd.ssd.Ssd.host_read_seconds`) so checkpoint bandwidth
is as measured as everything else in the repo — SiM-style cheap
recovery metadata, priced honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.ingest.store import MutableFeatureStore, Mutation
from repro.recovery.wal import RecoveryError
from repro.ssd.ftl import DatabaseMetadata
from repro.ssd.ssd import Ssd


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to take a checkpoint."""

    #: seconds of simulated time between checkpoint attempts
    interval_s: float = 0.005
    #: skip the attempt unless at least this many epochs are new
    min_epochs: int = 1

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise RecoveryError("interval_s must be positive")
        if self.min_epochs < 1:
            raise RecoveryError("min_epochs must be at least 1")


@dataclass(frozen=True)
class Checkpoint:
    """A frozen, durable image of one store state.

    ``wal_lsn`` is the high-water mark the image covers: recovery
    replays only records with a larger lsn, and the WAL may truncate
    everything at or below it.
    """

    checkpoint_id: int
    epoch: int
    wal_lsn: int
    taken_at_s: float
    rows: np.ndarray
    deleted_at: Tuple[Tuple[int, int], ...]
    boundaries: Tuple[Tuple[int, int], ...]
    #: the clustered layout's ids, written out with the image although
    #: ``clustered_epoch`` alone determines them
    clustered_ids: np.ndarray
    clustered_epoch: int
    physical_rows: int
    log: Tuple[Mutation, ...]

    @property
    def nbytes(self) -> int:
        """Serialized size the flash is charged for."""
        return (
            self.rows.nbytes
            + self.clustered_ids.nbytes
            + 16 * len(self.deleted_at)
            + 16 * len(self.boundaries)
            + 64  # header: ids, epochs, counts
        )

    def restore(self) -> MutableFeatureStore:
        """A fresh store holding exactly this image's state."""
        return MutableFeatureStore.from_state(
            rows=self.rows,
            epoch=self.epoch,
            deleted_at=self.deleted_at,
            boundaries=self.boundaries,
            clustered_epoch=self.clustered_epoch,
            physical_rows=self.physical_rows,
            log=self.log,
        )


def take_checkpoint(
    store: MutableFeatureStore,
    checkpoint_id: int,
    wal_lsn: int,
    now_s: float,
) -> Checkpoint:
    """Freeze the store's current state into a checkpoint image."""
    rows, epoch, deleted, boundaries, cepoch, physical, log = store.state_tuple()
    return Checkpoint(
        checkpoint_id=checkpoint_id,
        epoch=epoch,
        wal_lsn=wal_lsn,
        taken_at_s=now_s,
        rows=rows,
        deleted_at=deleted,
        boundaries=boundaries,
        clustered_ids=store.clustered_ids,
        clustered_epoch=cepoch,
        physical_rows=physical,
        log=log,
    )


def checkpoint_write_seconds(ssd: Ssd, checkpoint: Checkpoint) -> float:
    """Measured time to program one checkpoint image to flash."""
    page_bytes = ssd.config.geometry.page_bytes
    meta = DatabaseMetadata(
        db_id=0,
        feature_bytes=page_bytes,
        feature_count=max(1, -(-checkpoint.nbytes // page_bytes)),
        page_bytes=page_bytes,
    )
    return ssd.database_write_seconds(meta)


def checkpoint_read_seconds(ssd: Ssd, checkpoint: Checkpoint) -> float:
    """Measured time to load one checkpoint image at recovery."""
    return ssd.host_read_seconds(checkpoint.nbytes)
