"""One superstep: the BSP-like fixed point of Algorithm 1, on flat arrays.

With two partitions loaded (their vertex sets and edge lists combined),
the superstep keeps two edge sets: ``O`` ("old" edges already matched in
earlier iterations) and ``D`` ("new" edges discovered in the previous
iteration).  Each iteration matches

* every old edge ``v -> u`` in ``O`` against the *new* edges of ``u``, and
* every new edge ``v -> u`` in ``D`` against *all* edges of ``u``,

never old × old — that work was done in an earlier iteration.  Matched
pairs produce transitive edges; duplicates are eliminated during the
merge (the property that makes the computation terminate, §4.2).  The
superstep ends when no iteration adds an edge, or early when the
in-memory edge count crosses ``memory_limit_edges`` (the mid-superstep
repartitioning trigger, §4.3).

Both sets live in the pair-set form of :mod:`repro.engine.pairset` for
the whole fixed point — normally one sorted int64 compound per edge, so
dedup is one sort, freshness one ``searchsorted`` and ``O ∪ D`` a linear
merge (DESIGN.md §17).  They are decoded to the flat lexsorted
``(src, key)`` arrays the partitions, the join kernels and the on-disk
format use only where a backend joins them, and once more for the
result.  The per-vertex dict form remains available via
:attr:`SuperstepResult.adjacency` for tests and the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.engine.join import CsrView, apply_unary_closure  # noqa: F401 (re-export)
from repro.engine.pairset import LexsortPairs, pairs_for_bounds
from repro.graph import packed
from repro.grammar.grammar import FrozenGrammar


@dataclass
class SuperstepResult:
    """Outcome of one superstep over a loaded vertex set.

    The final merged edge set is the flat lexsorted ``(src, keys)`` pair;
    :meth:`csr` regroups it as a CSR view and :attr:`adjacency`
    materializes the legacy per-vertex dict on demand (rows are zero-copy
    slices of ``keys``).
    """

    src: np.ndarray  # final merged edges: source vertices (lexsorted)
    keys: np.ndarray  # final merged edges: packed (target, label)
    added_src: np.ndarray  # source vertex of every edge added
    added_keys: np.ndarray  # packed (target, label) of every edge added
    iterations: int
    completed: bool  # False if stopped early by the memory limit
    telemetry: Optional["JoinTelemetry"] = None  # backend parallelism counters
    _adjacency: Optional[Dict[int, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def edges_added(self) -> int:
        return len(self.added_src)

    def csr(self) -> CsrView:
        return CsrView.from_flat(self.src, self.keys)

    @property
    def adjacency(self) -> Dict[int, np.ndarray]:
        """The final edge set as ``{src: sorted packed keys}`` (lazy)."""
        if self._adjacency is None:
            view = self.csr()
            self._adjacency = {
                int(v): view.keys[view.indptr[i] : view.indptr[i + 1]]
                for i, v in enumerate(view.vertices)
            }
        return self._adjacency


# ---------------------------------------------------------------------------
# flat (src, key) input normalization
# ---------------------------------------------------------------------------

def _flatten_adjacency(
    adjacency: Union[Mapping, CsrView]
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize dict or CSR input to flat lexsorted ``(src, key)`` arrays.

    The pair-set algebra (membership, the linear merge, the CSR
    regrouping) relies on per-vertex key arrays being sorted and
    duplicate-free; dict input is user-supplied, so rows violating the
    invariant are repaired (sort + dedup) on entry rather than silently
    corrupting the fixed point.
    """
    if isinstance(adjacency, CsrView):
        from repro.engine.parallel import expand_view

        return expand_view(adjacency)
    items = []
    for v, keys in adjacency.items():
        arr = np.asarray(keys, dtype=np.int64)
        if len(arr) == 0:
            continue
        if len(arr) > 1 and not np.all(arr[:-1] < arr[1:]):
            arr = np.unique(arr)  # restore the sorted/duplicate-free invariant
        items.append((v, arr))
    if not items:
        return packed.EMPTY, packed.EMPTY
    items.sort(key=lambda item: item[0])
    src = np.concatenate(
        [np.full(len(keys), v, dtype=np.int64) for v, keys in items]
    )
    keys = np.concatenate([keys for _, keys in items])
    return src, keys


def _unary_expand(
    src: np.ndarray, keys: np.ndarray, grammar: FrozenGrammar
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Expand every edge into its label's unary closure, in one gather.

    The whole-array counterpart of :func:`apply_unary_closure`.  Returns
    raw (unsorted, possibly duplicated) pairs, or None when every
    closure is a singleton and the input is already closed.
    """
    if len(src) == 0:
        return None
    labels = packed.labels_of(keys)
    counts = grammar.unary_closure_sizes[labels]
    total = int(counts.sum())
    if total == len(src):
        return None
    cum = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts)
    derived = grammar.unary_closure_table[
        np.repeat(grammar.unary_closure_offsets[labels], counts) + within
    ]
    out_src = np.repeat(src, counts)
    out_keys = np.repeat(keys & ~np.int64(packed.LABEL_MASK), counts) | derived
    return out_src, out_keys


# ---------------------------------------------------------------------------
# legacy dict helpers (kept for the dedup/old-new ablation bench)
# ---------------------------------------------------------------------------

def _edges_of(adjacency: Dict[int, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a per-vertex adjacency dict into parallel (src, key) arrays."""
    items = [(v, keys) for v, keys in adjacency.items() if len(keys)]
    if not items:
        return packed.EMPTY, packed.EMPTY
    src = np.concatenate(
        [np.full(len(keys), v, dtype=np.int64) for v, keys in items]
    )
    keys = np.concatenate([keys for _, keys in items])
    return src, keys


def _group_candidates(
    cand_src: np.ndarray, cand_keys: np.ndarray
) -> List[Tuple[int, np.ndarray]]:
    """Sort/dedup raw join output and group it by source vertex.

    Safe on empty input (a per-worker shard of the process backend can
    legitimately produce nothing): returns an empty list rather than
    tripping over the degenerate ``[0, 0]`` boundary array.
    """
    if len(cand_src) == 0:
        return []
    src, keys = LexsortPairs.dedup((cand_src, cand_keys))
    boundaries = np.flatnonzero(src[1:] != src[:-1]) + 1
    starts = np.concatenate([[0], boundaries, [len(src)]])
    return [
        (int(src[starts[i]]), keys[starts[i] : starts[i + 1]])
        for i in range(len(starts) - 1)
    ]


def run_superstep(
    adjacency: Union[Mapping, CsrView],
    grammar: FrozenGrammar,
    memory_limit_edges: int = 0,
    num_threads: int = 1,
    backend: Optional["JoinBackend"] = None,
) -> SuperstepResult:
    """Run Algorithm 1 to a fixed point over ``adjacency``.

    ``adjacency`` holds the combined edge lists of the loaded partitions,
    either as a per-vertex dict ``{src: sorted packed keys}`` or directly
    as a :class:`CsrView` (the engine's native form — no dict is ever
    built on that path).  A ``memory_limit_edges`` of 0 disables the
    early-stop check.

    All edge-pair joins route through ``backend`` (a
    :class:`~repro.engine.parallel.JoinBackend`).  When ``backend`` is
    None a transient one is built from ``num_threads`` (the historical
    behaviour: a thread pool when ``num_threads > 1``) and torn down
    before returning.
    """
    from repro.engine.parallel import make_backend

    if backend is None:
        with make_backend(None, grammar, num_threads) as owned:
            return run_superstep(
                adjacency, grammar, memory_limit_edges, num_threads, owned
            )

    backend.begin_superstep()

    base_src, base_keys = _flatten_adjacency(adjacency)

    # Id bounds for the whole superstep, read once: sources are lexsorted
    # (maximum at the end) and joins only ever re-use an existing left
    # source; no join or unary closure introduces a target vertex absent
    # from the initial edge set, so every key any iteration can produce
    # stays below (max_target + 1) << LABEL_BITS.
    if len(base_src):
        max_src = int(base_src[-1])
        key_bound = (
            (int(base_keys.max()) >> packed.LABEL_BITS) + 1
        ) << packed.LABEL_BITS
    else:
        max_src, key_bound = 0, 1
    ops = pairs_for_bounds(max_src, key_bound)

    added_parts = []

    # Initialization (Algorithm 1, lines 3-5): O empty, D the original
    # edge set — here additionally closed under unary productions so the
    # join only ever consults binary productions.
    new = ops.encode(base_src, base_keys)
    expanded = _unary_expand(base_src, base_keys, grammar)
    if expanded is not None:
        base, new = new, ops.dedup(ops.encode(*expanded))
        added_parts.append(ops.difference(new, base))
    old = ops.empty
    edges_in_memory = ops.size(new)

    iterations = 0
    completed = True
    prev_old_view: Optional[CsrView] = None
    prev_new_view: Optional[CsrView] = None
    while ops.size(new):
        iterations += 1
        backend.begin_iteration()
        new_src, new_keys = ops.decode(new)
        old_src, old_keys = ops.decode(old)
        new_view = CsrView.from_flat(new_src, new_keys)
        old_view = CsrView.from_flat(old_src, old_keys)
        if prev_new_view is not None:
            # This iteration's O is last iteration's O ∪ D: backends
            # holding per-snapshot derived state (matmul label blocks)
            # reuse it instead of rebuilding from scratch.
            backend.note_union(old_view, prev_old_view, prev_new_view)

        # Component 1 (lines 7-14): old edges × new continuation lists.
        c1_src, c1_keys = backend.join_edge_list(
            old_src, old_keys, old_view, [new_view]
        )
        # Component 2 (lines 15-20): new edges × all continuation lists.
        c2_src, c2_keys = backend.join_edge_list(
            new_src, new_keys, new_view, [old_view, new_view]
        )

        # Update O (lines 21-23): O <- O ∪ D.  The sets are disjoint, so
        # the in-memory edge count is unchanged by the merge.
        old = ops.union(old, new)
        new = ops.empty
        prev_old_view, prev_new_view = old_view, new_view

        if len(c1_src) + len(c2_src) == 0:
            break

        # D <- mergeResult - O (line 24): dedup candidates and keep only
        # edges not already present.
        candidates = ops.dedup(
            ops.encode(
                np.concatenate([c1_src, c2_src]),
                np.concatenate([c1_keys, c2_keys]),
            )
        )
        new = ops.difference(candidates, old)
        if ops.size(new):
            edges_in_memory += ops.size(new)
            added_parts.append(new)

        if memory_limit_edges and edges_in_memory > memory_limit_edges:
            completed = ops.size(new) == 0
            break

    # Final merged edge set (D is folded in if we stopped early).
    final_src, final_keys = ops.decode(ops.union(old, new))
    added_src, added_keys = ops.decode(ops.concat(added_parts))

    backend.end_superstep()
    return SuperstepResult(
        src=final_src,
        keys=final_keys,
        added_src=added_src,
        added_keys=added_keys,
        iterations=iterations,
        completed=completed,
        telemetry=backend.telemetry,
    )
