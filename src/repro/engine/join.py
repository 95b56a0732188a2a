"""The vectorized edge-pair join at the heart of Algorithm 1.

Given a batch of *left* edges ``v --l1--> u`` and the adjacency of the
loaded vertices, produce every grammar-sanctioned transitive edge
``v --K--> x`` where ``u --l2--> x`` is a loaded edge and ``K ::= l1 l2``
is a production.  This is the per-vertex "merge the out-lists of my
targets into my own list, filtering mismatched labels" step of §4.2,
flattened across all vertices and expressed as numpy gathers so the inner
loop runs at C speed (pure-Python edge-pair joins are why the repro band
flags this paper — see DESIGN.md).

Unary productions never appear here: :func:`apply_unary_closure` is
applied whenever edges enter the system, so an ``A`` edge is always
accompanied by its derived ``VF`` edge, etc.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph import packed
from repro.grammar.grammar import FrozenGrammar


class CsrView:
    """A read-only CSR snapshot of per-vertex sorted edge lists.

    ``vertices`` is sorted; row ``i`` holds the packed out-edges of
    ``vertices[i]`` in ``keys[indptr[i]:indptr[i+1]]``.
    """

    __slots__ = ("vertices", "indptr", "keys")

    def __init__(self, vertices: np.ndarray, indptr: np.ndarray, keys: np.ndarray):
        self.vertices = vertices
        self.indptr = indptr
        self.keys = keys

    @classmethod
    def from_dict(cls, adjacency: Dict[int, np.ndarray]) -> "CsrView":
        items = [(v, keys) for v, keys in adjacency.items() if len(keys)]
        if not items:
            return cls(packed.EMPTY, np.zeros(1, dtype=np.int64), packed.EMPTY)
        items.sort(key=lambda item: item[0])
        vertices = np.asarray([v for v, _ in items], dtype=np.int64)
        lengths = np.asarray([len(keys) for _, keys in items], dtype=np.int64)
        indptr = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        keys = np.concatenate([keys for _, keys in items])
        return cls(vertices, indptr, keys)

    @classmethod
    def from_flat(cls, src: np.ndarray, keys: np.ndarray) -> "CsrView":
        """Group flat ``(src, key)`` arrays — lexsorted by (src, key) —
        into a CSR view without copying ``keys``.

        The inverse of :func:`repro.engine.parallel.expand_view`; all of
        the engine's flat-array state goes through here, so no Python
        per-row loop is involved.
        """
        if len(src) == 0:
            return cls(packed.EMPTY, np.zeros(1, dtype=np.int64), packed.EMPTY)
        starts = np.concatenate(
            [[0], np.flatnonzero(src[1:] != src[:-1]) + 1]
        ).astype(np.int64)
        vertices = src[starts]
        indptr = np.concatenate([starts, [len(src)]]).astype(np.int64)
        return cls(vertices, indptr, keys)

    @property
    def num_edges(self) -> int:
        return len(self.keys)

    def rows_for(self, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map target vertex ids to CSR rows; returns (rows, valid_mask)."""
        if len(self.vertices) == 0 or len(targets) == 0:
            return (
                np.zeros(len(targets), dtype=np.int64),
                np.zeros(len(targets), dtype=bool),
            )
        rows = np.searchsorted(self.vertices, targets)
        rows_clamped = np.minimum(rows, len(self.vertices) - 1)
        valid = self.vertices[rows_clamped] == targets
        return rows_clamped, valid


def apply_unary_closure(keys: np.ndarray, grammar: FrozenGrammar) -> np.ndarray:
    """Expand a sorted key array with all unary-derivable labels.

    Idempotent (the closure tables are transitively closed).  Returns a
    sorted, duplicate-free array.
    """
    if len(keys) == 0:
        return keys
    labels = packed.labels_of(keys)
    if np.all(grammar.unary_closure_sizes[labels] == 1):
        return keys  # nothing derivable; common fast path
    pieces: List[np.ndarray] = [keys]
    for label in np.unique(labels):
        closure = grammar.unary_closure[int(label)]
        if len(closure) == 1:
            continue
        bases = keys[labels == label] & ~np.int64(packed.LABEL_MASK)
        for derived in closure:
            if derived == label:
                continue
            pieces.append(bases | np.int64(derived))
    return packed.merge_unique(pieces)


def continuation_counts(
    left_keys: np.ndarray, rights: Sequence[CsrView]
) -> np.ndarray:
    """Continuation edges :func:`join_edges` gathers per left edge.

    Summed over ``rights``; an upper bound, because the gather happens
    before the grammar's label filter.  The superstep uses it to cut a
    join's left edges into batches whose gathered working set fits a cap.
    """
    counts = np.zeros(len(left_keys), dtype=np.int64)
    targets = packed.targets_of(left_keys)
    for right in rights:
        if right.num_edges == 0:
            continue
        rows, valid = right.rows_for(targets)
        counts += np.where(valid, right.indptr[rows + 1] - right.indptr[rows], 0)
    return counts


def join_edges(
    left_src: np.ndarray,
    left_keys: np.ndarray,
    right: CsrView,
    grammar: FrozenGrammar,
    head_mask: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Join left edges against the right adjacency under the grammar.

    Returns unsorted candidate ``(src, key)`` arrays (may contain
    duplicates; the caller deduplicates during the merge, which is where
    Algorithm 1's duplicate check lives).
    """
    if len(left_src) == 0 or right.num_edges == 0:
        return packed.EMPTY, packed.EMPTY

    l1 = packed.labels_of(left_keys)
    usable = head_mask[l1]
    if not usable.all():
        left_src, left_keys, l1 = left_src[usable], left_keys[usable], l1[usable]
    if len(left_src) == 0:
        return packed.EMPTY, packed.EMPTY

    targets = packed.targets_of(left_keys)
    rows, valid = right.rows_for(targets)
    if not valid.any():
        return packed.EMPTY, packed.EMPTY
    left_src, l1, rows = left_src[valid], l1[valid], rows[valid]

    starts = right.indptr[rows]
    counts = right.indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return packed.EMPTY, packed.EMPTY

    # Gather the continuation edges of every joined target in one shot.
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    continuation = right.keys[np.repeat(starts, counts) + within]

    src_rep = np.repeat(left_src, counts)
    l1_rep = np.repeat(l1, counts)
    l2 = packed.labels_of(continuation)
    slots = grammar.binary_index[l1_rep, l2]
    matched = slots >= 0
    if not matched.any():
        return packed.EMPTY, packed.EMPTY

    src_m = src_rep[matched]
    x_m = packed.targets_of(continuation[matched])
    slots_m = slots[matched]

    out_src: List[np.ndarray] = []
    out_keys: List[np.ndarray] = []
    for slot in np.unique(slots_m):
        sel = slots_m == slot
        produced = grammar.binary_results[int(slot)]
        base = x_m[sel] << packed.LABEL_BITS
        for lhs in produced:
            out_src.append(src_m[sel])
            out_keys.append(base | np.int64(lhs))
    if not out_src:
        # Degenerate grammars can match a slot whose result set is empty
        # (every produced LHS pruned away); concatenating zero pieces
        # would raise instead of yielding the empty candidate set.
        return packed.EMPTY, packed.EMPTY
    return np.concatenate(out_src), np.concatenate(out_keys)


def join_edges_chunked(
    left_src: np.ndarray,
    left_keys: np.ndarray,
    rights: Sequence[CsrView],
    grammar: FrozenGrammar,
    head_mask: np.ndarray,
    num_threads: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Join against several right views on the default backend.

    The left edges may come in any order.  The default backend is the
    sparse-product kernel when scipy is installed; without it, the
    edge-pair join, chunked over the left edges across a thread pool when
    ``num_threads > 1`` — Algorithm 1's per-vertex parallelism ("create a
    separate thread to process each vertex").  The candidate *set* is the
    same either way because duplicates are eliminated downstream.

    Convenience wrapper over the :mod:`repro.engine.parallel` backends
    for one-shot joins; the engine itself holds a persistent backend so
    pools and shared-memory snapshots survive across supersteps.
    """
    from repro.engine.parallel import make_backend

    with make_backend(None, grammar, num_threads, head_mask=head_mask) as backend:
        return backend.join_arrays(left_src, left_keys, rights)
