"""Tests for the destination distribution map (scheduling + termination)."""

import numpy as np
import pytest

from repro.partition import DestinationDistributionMap


def ddm3(counts=None):
    if counts is None:
        counts = [[1, 2, 0], [0, 1, 3], [0, 0, 0]]
    return DestinationDistributionMap(np.asarray(counts, dtype=np.int64))


class TestInitialState:
    def test_initial_deltas_equal_counts(self):
        """Never-co-loaded pairs score their full percentage (§4.3)."""
        ddm = ddm3()
        assert ddm.pair_score(0, 1) == 2  # 2 + 0
        assert ddm.pair_score(1, 2) == 3

    def test_initially_dirty_where_edges_exist(self):
        ddm = ddm3()
        assert ddm.pair_dirty(0, 0)  # self-edges exist
        assert ddm.pair_dirty(0, 1)
        assert not ddm.pair_dirty(2, 2)  # no edges at all
        assert not ddm.pair_dirty(0, 2)  # no cross edges

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            DestinationDistributionMap(np.zeros((2, 3), dtype=np.int64))


class TestSyncAndTermination:
    def test_mark_synced_clears_pair(self):
        ddm = ddm3()
        ddm.mark_synced([0, 1])
        assert not ddm.pair_dirty(0, 1)
        assert not ddm.pair_dirty(0, 0)
        assert ddm.pair_dirty(1, 2)  # untouched pair still dirty

    def test_finished_after_all_pairs_synced(self):
        ddm = ddm3()
        ddm.mark_synced([0, 1])
        ddm.mark_synced([1, 2])
        assert ddm.finished()

    def test_new_edges_redirty_synced_pairs(self):
        ddm = ddm3()
        ddm.mark_synced([0, 1])
        ddm.record_new_edges(0, 1, 5)
        assert ddm.pair_dirty(0, 1)
        assert ddm.pair_score(0, 1) == 5

    def test_internal_edge_dirties_cross_pair(self):
        """A new edge inside p must re-dirty (p, q) pairs even though the
        p->q percentage never changed — the version-counter case from the
        DDM docstring."""
        ddm = ddm3()
        ddm.mark_synced([0, 1])
        ddm.mark_synced([1, 2])
        assert ddm.finished()
        # new edge entirely inside partition 1 (e.g. added while (1, x)
        # was loaded elsewhere)
        ddm.record_new_edges(1, 1, 1)
        # pair (0,1) interacts (counts[0][1] = 2) and p1's version moved
        assert ddm.pair_dirty(0, 1)
        # pair (0,2) still has no interaction
        assert not ddm.pair_dirty(0, 2)

    def test_dirty_pairs_enumeration(self):
        ddm = ddm3()
        pairs = ddm.dirty_pairs()
        assert (0, 1) in pairs
        assert (0, 2) not in pairs
        assert all(p <= q for p, q in pairs)


class TestSplit:
    def test_split_grows_matrices(self):
        ddm = ddm3()
        left = np.asarray([1, 0, 2, 0], dtype=np.int64)
        right = np.asarray([0, 0, 0, 0], dtype=np.int64)
        ddm.split_partition(0, left, right)
        assert ddm.num_partitions == 4
        assert list(ddm.counts[0]) == list(left)
        assert list(ddm.counts[1]) == list(right)

    def test_split_preserves_other_rows(self):
        ddm = ddm3()
        before_row2 = ddm.counts[1].copy()  # old partition 1
        ddm.split_partition(
            0,
            np.zeros(4, dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        )
        after = ddm.counts[2]  # old partition 1 shifted to index 2
        # the column for old partition 0 was duplicated into 0 and 1
        assert after[0] == before_row2[0]
        assert after[1] == before_row2[0]
        assert after[2] == before_row2[1]

    def test_split_keeps_sync_state(self):
        ddm = ddm3()
        ddm.mark_synced([0, 1])
        ddm.split_partition(
            1,
            np.zeros(4, dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        )
        # splitting adds no edges: previously synced pairs stay clean
        assert not ddm.pair_dirty(0, 1)
        assert not ddm.pair_dirty(0, 2)

    def test_set_exact_row(self):
        ddm = ddm3()
        ddm.set_exact_row(0, np.asarray([9, 9, 9], dtype=np.int64))
        assert list(ddm.counts[0]) == [9, 9, 9]


def scalar_mark_synced(ddm, pids):
    """The historical per-cell loop ``mark_synced`` replaced."""
    ids = list(pids)
    for p in ids:
        for q in ids:
            ddm.added_since_sync[p, q] = 0
            ddm.synced_version[p, q] = ddm.version[p]


class TestVectorizedMarkSynced:
    """``mark_synced`` must equal the scalar double loop it replaced."""

    def state(self, ddm):
        return (
            ddm.counts.copy(),
            ddm.added_since_sync.copy(),
            ddm.version.copy(),
            ddm.synced_version.copy(),
        )

    def test_matches_scalar_loop_on_random_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            counts = rng.integers(0, 5, size=(n, n))
            fast, slow = ddm3(counts), ddm3(counts)
            for step in range(int(rng.integers(1, 6))):
                src, dst = int(rng.integers(0, n)), int(rng.integers(0, n))
                for ddm in (fast, slow):
                    ddm.record_new_edges(src, dst, step + 1)
                if n > 1 and rng.random() < 0.4:
                    # Split a partition: matrices grow, ids shift.
                    pid = int(rng.integers(0, n))
                    left = rng.integers(0, 4, size=n + 1)
                    right = rng.integers(0, 4, size=n + 1)
                    for ddm in (fast, slow):
                        ddm.split_partition(pid, left, right)
                    n += 1
                # Any subset, unordered and with repeats, like a set a
                # superstep loaded (or a (p, p) pair spelled out).
                pids = rng.choice(n, size=int(rng.integers(0, n + 2)))
                fast.mark_synced(int(p) for p in pids)
                scalar_mark_synced(slow, [int(p) for p in pids])
                for a, b in zip(self.state(fast), self.state(slow)):
                    assert np.array_equal(a, b)

    def test_empty_set_is_a_noop(self):
        ddm = ddm3()
        before = self.state(ddm)
        ddm.mark_synced([])
        for a, b in zip(before, self.state(ddm)):
            assert np.array_equal(a, b)
