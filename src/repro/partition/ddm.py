"""The destination distribution map (DDM).

The DDM is a per-partition-pair matrix.  Cell ``(p, q)`` records how many
edges of partition ``p`` point into interval ``q`` and — the paper's
*delta* field — how many of those arrived since ``p`` and ``q`` were last
loaded together.  The scheduler picks the pair with the largest
``delta(p,q) + delta(q,p)`` score; the engine terminates when every delta
cell is zero (§4.3).

Beyond the paper's prose we additionally track a per-partition *version*
(a monotone count of edges ever added to the partition) and, per ordered
pair, the version at which the pair was last synchronized.  This closes a
subtle staleness case: a new edge ``v -> w`` entirely inside ``p`` changes
no cross-partition percentage, yet partitions with edges *into* ``p``
must still be re-paired with ``p`` to extend paths through the new edge.
A pair is "dirty" whenever either member's version advanced past the
pair's last sync — the delta cells then quantify how profitable the pair
looks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


class DestinationDistributionMap:
    """Pair-wise edge-distribution and staleness bookkeeping."""

    def __init__(self, counts: np.ndarray) -> None:
        n = counts.shape[0]
        if counts.shape != (n, n):
            raise ValueError("counts must be square")
        self.counts = counts.astype(np.int64)
        # Paper: "If p and q have never been loaded together, the change is
        # the same as the full percentage" -> deltas start as full counts.
        self.added_since_sync = self.counts.copy()
        self.version = np.zeros(n, dtype=np.int64)
        # synced_version[p, q]: version of p when (p, q) was last co-loaded;
        # -1 means never co-loaded.
        self.synced_version = np.full((n, n), -1, dtype=np.int64)

    @property
    def num_partitions(self) -> int:
        return self.counts.shape[0]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def record_new_edges(self, src_pid: int, dst_pid: int, num: int) -> None:
        """Account ``num`` new edges from partition ``src_pid`` into ``dst_pid``."""
        if num <= 0:
            return
        self.counts[src_pid, dst_pid] += num
        self.added_since_sync[src_pid, dst_pid] += num
        self.version[src_pid] += num

    def record_new_edges_bulk(
        self, cells: np.ndarray, counts: np.ndarray
    ) -> None:
        """Account many new-edge cells at once.

        ``cells`` holds flattened ``src_pid * num_partitions + dst_pid``
        indices and ``counts`` the parallel edge counts — exactly the
        output of ``np.unique(..., return_counts=True)`` over bucketed
        edges.  One scatter-add per matrix replaces the per-cell Python
        loop the engine used to run every superstep.
        """
        cells = np.asarray(cells, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        keep = counts > 0
        if not keep.all():
            cells, counts = cells[keep], counts[keep]
        if len(cells) == 0:
            return
        n = self.num_partitions
        # The matrices are C-contiguous, so reshape(-1) is a view and the
        # scatter-add lands in place.
        np.add.at(self.counts.reshape(-1), cells, counts)
        np.add.at(self.added_since_sync.reshape(-1), cells, counts)
        np.add.at(self.version, cells // n, counts)

    def mark_synced(self, pids: Iterable[int]) -> None:
        """Declare every pair among ``pids`` saturated (superstep finished).

        One fancy-indexed assignment per matrix over the ``pids × pids``
        block: a budget-wide superstep syncs dozens of partitions at
        once, and the scalar double loop cost O(k²) interpreter steps.
        """
        ids = np.asarray(list(pids), dtype=np.int64)
        if len(ids) == 0:
            return
        block = np.ix_(ids, ids)
        self.added_since_sync[block] = 0
        self.synced_version[block] = self.version[ids][:, None]

    def set_exact_row(self, pid: int, row_counts: np.ndarray) -> None:
        """Replace ``pid``'s count row with an exactly recomputed one.

        Used whenever a partition is resident in memory: its destination
        distribution can be recomputed exactly, correcting the
        proportional approximations introduced by earlier splits.
        """
        self.counts[pid, :] = row_counts

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pair_dirty(self, p: int, q: int) -> bool:
        """Does pair ``(p, q)`` still have unprocessed match opportunities?"""
        # A pair can only produce matches if some loaded edge crosses the
        # two intervals (for p == q: some edge stays inside the interval).
        interacts = self.counts[p, q] > 0 or self.counts[q, p] > 0
        if not interacts:
            return False
        return (
            self.version[p] > self.synced_version[p, q]
            or self.version[q] > self.synced_version[q, p]
        )

    def pair_score(self, p: int, q: int) -> int:
        """The paper's ``delta(p,q) + delta(q,p)`` scheduling score."""
        if p == q:
            return int(self.added_since_sync[p, p])
        return int(self.added_since_sync[p, q] + self.added_since_sync[q, p])

    def pair_scores(
        self, assume_synced: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All dirty pairs and their scores, as three parallel arrays.

        Returns ``(ps, qs, scores)`` with ``ps[i] <= qs[i]``, ordered
        p-major then q — the same enumeration order (and the exact same
        dirtiness/score semantics) as the scalar :meth:`pair_dirty` /
        :meth:`pair_score` pair, computed as whole-matrix boolean
        algebra instead of an O(n²) Python loop.

        With ``assume_synced`` the computation *simulates*
        :meth:`mark_synced` over those partitions first (without
        mutating the map) — the scheduler's lookahead uses this to
        predict the pair that will run after the current one completes.
        """
        added = self.added_since_sync
        synced = self.synced_version
        if assume_synced:
            ids = np.asarray(sorted(set(assume_synced)), dtype=np.int64)
            added = added.copy()
            synced = synced.copy()
            added[np.ix_(ids, ids)] = 0
            synced[np.ix_(ids, ids)] = self.version[ids][:, None]
        interacts = (self.counts > 0) | (self.counts.T > 0)
        stale = self.version[:, None] > synced
        dirty = interacts & (stale | stale.T)
        scores = added + added.T
        np.fill_diagonal(scores, np.diagonal(added))
        ps, qs = np.nonzero(np.triu(dirty))
        return ps, qs, scores[ps, qs]

    def dirty_pairs(self) -> List[Tuple[int, int]]:
        """All unordered dirty pairs ``(p, q)`` with ``p <= q``."""
        ps, qs, _ = self.pair_scores()
        return [(int(p), int(q)) for p, q in zip(ps, qs)]

    def finished(self) -> bool:
        """Global fixed point: no pair has pending work (§4.3 termination)."""
        ps, _, _ = self.pair_scores()
        return len(ps) == 0

    # ------------------------------------------------------------------
    # repartitioning
    # ------------------------------------------------------------------
    def split_partition(
        self,
        pid: int,
        left_row: np.ndarray,
        right_row: np.ndarray,
    ) -> None:
        """Expand the matrices after ``pid`` split into ``pid``/``pid+1``.

        ``left_row``/``right_row`` are the *exact* destination-count rows
        of the two halves, computed over the post-split VIT (callers have
        the split partition in memory).  Columns of other partitions —
        how *their* edges distribute over the two new intervals — would
        need a scan of every other partition, so the parent's column is
        conservatively duplicated into both halves (an upper bound that
        can only cause harmless extra scheduling; rows are corrected
        exactly whenever a partition is next loaded).
        """

        def grow(matrix: np.ndarray) -> np.ndarray:
            matrix = np.insert(matrix, pid + 1, matrix[pid, :], axis=0)
            matrix = np.insert(matrix, pid + 1, matrix[:, pid], axis=1)
            return matrix

        self.counts = grow(self.counts)
        self.added_since_sync = grow(self.added_since_sync)
        self.synced_version = grow(self.synced_version)
        self.version = np.insert(self.version, pid + 1, self.version[pid])
        self.counts[pid, :] = left_row
        self.counts[pid + 1, :] = right_row

    def __repr__(self) -> str:
        return (
            f"DestinationDistributionMap({self.num_partitions} partitions, "
            f"{len(self.dirty_pairs())} dirty pairs)"
        )
