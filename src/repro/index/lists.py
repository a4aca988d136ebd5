"""Inverted lists and their post-build flash layout.

An IVF build clusters the indexed rows and rewrites them **in list
order** onto flash (priced in :mod:`repro.index.build`), so a probed
list is a *contiguous* run of the database layout.  That contiguity is
what lets the probe drive the existing scan machinery: a list maps to a
range of layout positions, positions map to db page offsets via the
database's packing rule, and the DES scan
(:class:`repro.core.event_query.EventQuerySimulator` with
``page_offsets``) streams exactly those pages.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ssd.ftl import DatabaseMetadata


class InvertedLists:
    """Feature ids grouped by centroid assignment.

    Each list holds its ids **ascending** (ascending id = storage order,
    which keeps the probe's chunked scan bit-compatible with the
    exhaustive scan when every list is probed).
    """

    def __init__(self, ids: np.ndarray, assignments: np.ndarray, n_lists: int):
        ids = np.asarray(ids, dtype=np.int64)
        assignments = np.asarray(assignments, dtype=np.int64)
        if ids.shape != assignments.shape:
            raise ValueError("ids and assignments must align")
        if n_lists <= 0:
            raise ValueError("n_lists must be positive")
        self._lists: List[np.ndarray] = [
            np.sort(ids[assignments == j]) for j in range(n_lists)
        ]
        sizes = np.asarray([len(lst) for lst in self._lists], dtype=np.int64)
        #: layout position where each list starts after the build's
        #: list-ordered rewrite (cumulative sizes)
        self.layout_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(sizes)]
        )

    # ------------------------------------------------------------------
    @property
    def n_lists(self) -> int:
        return len(self._lists)

    @property
    def sizes(self) -> List[int]:
        return [len(lst) for lst in self._lists]

    def list_ids(self, list_id: int) -> np.ndarray:
        """The feature ids posted to one list, in ascending id order."""
        return self._lists[list_id]

    # ------------------------------------------------------------------
    def probed_ids(self, list_ids: Sequence[int]) -> np.ndarray:
        """Ascending union of the probed lists' feature ids."""
        parts = [self._lists[int(j)] for j in list_ids]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def probed_positions(self, list_ids: Sequence[int]) -> np.ndarray:
        """Ascending layout positions covered by the probed lists."""
        parts = [
            np.arange(
                self.layout_offsets[int(j)],
                self.layout_offsets[int(j) + 1],
                dtype=np.int64,
            )
            for j in list_ids
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def probed_page_offsets(
        self, list_ids: Sequence[int], meta: DatabaseMetadata
    ) -> List[int]:
        """Sorted db page offsets the probe touches in the built layout.

        Uses the database's own packing rule: page-aligned features span
        ``pages_per_feature`` whole pages each; sub-page features pack
        ``features_per_page`` to a page.
        """
        positions = self.probed_positions(list_ids)
        if len(positions) == 0:
            return []
        if meta.page_aligned:
            ppf = meta.pages_per_feature
            offsets = (
                positions[:, None] * ppf + np.arange(ppf, dtype=np.int64)
            ).reshape(-1)
        else:
            offsets = np.unique(positions // meta.features_per_page)
        offsets = offsets[offsets < meta.total_pages]
        return [int(o) for o in np.unique(offsets)]
