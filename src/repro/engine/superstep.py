"""One superstep: the BSP-like fixed point of Algorithm 1, on flat arrays.

With a set of partitions loaded (their vertex sets and edge lists
combined — two in the paper, as many as the memory budget holds here,
DESIGN.md §18), the superstep keeps two edge sets: ``O`` ("old" edges
already matched in earlier iterations) and ``D`` ("new" edges discovered
in the previous iteration).  Each iteration matches

* every old edge ``v -> u`` in ``O`` against the *new* edges of ``u``, and
* every new edge ``v -> u`` in ``D`` against *all* edges of ``u``,

never old × old — that work was done in an earlier iteration.  Matched
pairs produce transitive edges; duplicates are eliminated during the
merge (the property that makes the computation terminate, §4.2).  The
superstep ends when no iteration adds an edge, or early when the
in-memory edge count crosses ``memory_limit_edges`` (the mid-superstep
repartitioning trigger, §4.3).  Under a memory budget each edge-pair
join also consumes its left edges in batches whose left edges plus
gathered continuations stay under a cap, each batch's candidates reduced
against ``O`` before the next runs, so the working set does not grow
with the loaded set (:func:`budget_limits` turns the budget into both
limits).

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
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.join import (  # noqa: F401 (apply_unary_closure re-export)
    CsrView,
    apply_unary_closure,
    continuation_counts,
)
from repro.engine.pairset import pairs_for_bounds
from repro.graph import packed
from repro.grammar.grammar import FrozenGrammar

#: Resident bytes one derived edge adds to its partition: a single int64
#: key, because joins and unary closure never introduce a source vertex.
KEY_BYTES = np.dtype(np.int64).itemsize

#: Memory-budget bytes granted per unit of join batch weight (a left
#: edge, or a continuation edge it gathers).  Measured with tracemalloc
#: over every batch of a whole-graph superstep of the benchmark's
#: pointer workload (32k → 215k edges, caps 4096 and 32768): the
#: edge-pair join plus the batch's dedup and difference peak at 20 B per
#: unit in the median and 36 B at most, so a batch's transient working
#: set stays under an eighth of the budget.
GATHER_BYTES = 256


def budget_limits(
    memory_budget: Optional[int],
    set_bytes: int,
    set_edges: int,
    headroom_bytes: int,
) -> Tuple[Optional[int], int]:
    """A memory budget's two limits on one superstep: ``(edges, gather_cap)``.

    ``edges`` is how many edges the loaded set (``set_bytes`` resident,
    ``set_edges`` edges) may reach before the superstep stops early: it
    may grow into what is left of the budget plus the one partition of
    ``headroom_bytes`` the residency bound allows — so a seed pair that
    alone fills the budget still makes progress — at :data:`KEY_BYTES`
    per derived edge.  ``gather_cap`` bounds each join batch's weight
    (:func:`_join_fresh`).  Without a budget: ``(None, 0)``, no limit
    and unbatched joins.
    """
    if memory_budget is None:
        return None, 0
    room = max(0, memory_budget - set_bytes) + headroom_bytes
    return set_edges + room // KEY_BYTES, max(1, memory_budget // GATHER_BYTES)


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


def _initial_delta(
    adjacency: Union[Mapping, CsrView], grammar: FrozenGrammar, gather_cap: int
):
    """The superstep's pair-set algebra, its first ``D`` and the unary adds.

    ``D`` is the input edge set closed under unary productions.  With a
    ``gather_cap`` the expansion runs over at most that many input edges
    at a time, each chunk reduced to the derived edges the input lacks —
    none, once partitions have been through a superstep — so the raw
    expansion (a multiple of the input) is never alive whole.  All of it
    is a temporary of this call, freed before the fixed point starts.
    """
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

    base = ops.encode(base_src, base_keys)
    step = gather_cap or max(1, len(base_src))
    derived = []
    for lo in range(0, len(base_src), step):
        expanded = _unary_expand(
            base_src[lo : lo + step], base_keys[lo : lo + step], grammar
        )
        if expanded is not None:
            fresh = ops.difference(ops.dedup(ops.encode(*expanded)), base)
            if ops.size(fresh):
                derived.append(fresh)
    if not derived:
        return ops, base, ops.empty
    added = ops.dedup(ops.concat(derived)) if len(derived) > 1 else derived[0]
    return ops, ops.union(base, added), added


# ---------------------------------------------------------------------------
# batched joins
# ---------------------------------------------------------------------------

def _left_batches(
    src: np.ndarray,
    keys: np.ndarray,
    view: CsrView,
    rights: Sequence[CsrView],
    cap: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray, CsrView, int]]:
    """Cut a join's left edges into row-aligned batches of weight ≤ ``cap``.

    A left edge weighs one (the join's per-left-edge arrays) plus the
    continuation edges it gathers (:func:`continuation_counts`, itself
    evaluated ``cap`` edges at a time).  Yields ``(src, keys, view,
    weight)`` per batch.  Batches end on CSR row boundaries so every
    backend still receives a consistent flat + CSR pair; a single row
    heavier than ``cap`` runs alone.  ``cap`` 0 yields the whole input
    once, without weighing it.
    """
    if not cap or len(src) == 0:
        yield src, keys, view, 0
        return
    weight = np.zeros(len(src) + 1, dtype=np.int64)
    for lo in range(0, len(src), cap):
        weight[lo + 1 : lo + cap + 1] = 1 + continuation_counts(
            keys[lo : lo + cap], rights
        )
    np.cumsum(weight, out=weight)
    if weight[-1] <= cap:
        yield src, keys, view, int(weight[-1])
        return
    ends = weight[view.indptr]  # cumulative weight before each row
    row, rows = 0, len(view.vertices)
    while row < rows:
        stop = int(np.searchsorted(ends, ends[row] + cap, side="right")) - 1
        stop = max(stop, row + 1)
        lo, hi = int(view.indptr[row]), int(view.indptr[stop])
        batch = CsrView(
            view.vertices[row:stop], view.indptr[row : stop + 1] - lo, keys[lo:hi]
        )
        yield src[lo:hi], keys[lo:hi], batch, int(ends[stop] - ends[row])
        row = stop


def _join_fresh(
    backend, ops, known, components, gather_cap: int, room: Optional[int]
):
    """``dedup(join results) − known`` over the join components.

    ``components`` lists ``(left_src, left_keys, left_view, rights)``
    joins.  Without a cap all candidates are reduced together, once.
    With one, left edges run in :func:`_left_batches` and candidates are
    deduplicated and differenced against ``known`` whenever the pending
    batches would weigh more than ``gather_cap`` — so at most about one
    cap's worth of join working set is alive at a time — and the remaining
    batches are skipped once more than ``room`` fresh edges turned up
    (``room`` None: never).

    Returns ``(fresh, cut)``; ``cut`` says batches were skipped, so the
    fresh set is a sound but partial iteration result.
    """
    fresh, pending = [], []
    found = pending_weight = 0

    def reduce() -> None:
        nonlocal found, pending_weight
        cand = ops.dedup(
            ops.encode(
                np.concatenate([s for s, _ in pending]),
                np.concatenate([k for _, k in pending]),
            )
        )
        diff = ops.difference(cand, known)
        if ops.size(diff):
            fresh.append(diff)
            found += ops.size(diff)
        pending.clear()
        pending_weight = 0

    def merged():
        if len(fresh) <= 1:
            return fresh[0] if fresh else ops.empty
        return ops.dedup(ops.concat(fresh))

    for left_src, left_keys, left_view, rights in components:
        for src, keys, view, weight in _left_batches(
            left_src, left_keys, left_view, rights, gather_cap
        ):
            if gather_cap and pending and pending_weight + weight > gather_cap:
                reduce()
                if room is not None and found > max(room, 0):
                    return merged(), True
            c_src, c_keys = backend.join_edge_list(src, keys, view, rights)
            if len(c_src):
                pending.append((c_src, c_keys))
                pending_weight += weight
    if pending:
        reduce()
    return merged(), False


def run_superstep(
    adjacency: Union[Mapping, CsrView],
    grammar: FrozenGrammar,
    memory_limit_edges: int = 0,
    num_threads: int = 1,
    backend: Optional["JoinBackend"] = None,
    gather_cap: int = 0,
) -> SuperstepResult:
    """Run Algorithm 1 to a fixed point over ``adjacency``.

    ``adjacency`` holds the combined edge lists of the loaded partitions,
    either as a per-vertex dict ``{src: sorted packed keys}`` or directly
    as a :class:`CsrView` (the engine's native form — no dict is ever
    built on that path).  A ``memory_limit_edges`` of 0 disables the
    early-stop check.  A ``gather_cap`` of 0 joins every left edge at
    once; otherwise the unary expansion runs that many input edges at a
    time and, on backends that gather continuations, joins run in
    batches of at most about that many left edges plus gathered
    continuation edges (see :func:`_join_fresh`), and the early stop may
    fall between batches — a completed closure is identical either way.

    All edge-pair joins route through ``backend`` (a
    :class:`~repro.engine.parallel.JoinBackend`).  When ``backend`` is
    None a transient default one is built (``make_backend(None, ...)``:
    matmul when scipy is installed, else serial or, with
    ``num_threads > 1``, a thread pool) and torn down before returning.
    """
    from repro.engine.parallel import make_backend

    if backend is None:
        with make_backend(None, grammar, num_threads) as owned:
            return run_superstep(
                adjacency,
                grammar,
                memory_limit_edges,
                num_threads,
                owned,
                gather_cap,
            )

    backend.begin_superstep()

    # Initialization (Algorithm 1, lines 3-5): O empty, D the original
    # edge set — here additionally closed under unary productions so the
    # join only ever consults binary productions.
    ops, new, unary_added = _initial_delta(adjacency, grammar, gather_cap)
    join_cap = gather_cap if backend.gathers_continuations else 0
    added_parts = [unary_added]
    old = ops.empty
    edges_in_memory = ops.size(new)

    iterations = 0
    completed = True
    prev_old_view: Optional[CsrView] = None
    prev_new_view: Optional[CsrView] = None
    while ops.size(new):
        iterations += 1
        new_src, new_keys = ops.decode(new)
        old_src, old_keys = ops.decode(old)
        new_view = CsrView.from_flat(new_src, new_keys)
        old_view = CsrView.from_flat(old_src, old_keys)
        # The iteration's two snapshots; only they may carry per-view
        # backend caches (a left batch view is used for one join).
        backend.begin_iteration((old_view, new_view))
        if prev_new_view is not None:
            # This iteration's O is last iteration's O ∪ D: backends
            # holding per-snapshot derived state (matmul label blocks)
            # reuse it instead of rebuilding from scratch.
            backend.note_union(old_view, prev_old_view, prev_new_view)

        # Update O (lines 21-23): O <- O ∪ D.  The sets are disjoint, so
        # the in-memory edge count is unchanged by the merge.  Folded in
        # before the joins run so every join batch can be reduced
        # against the O the next iteration will hold.
        old = ops.union(old, new)
        prev_old_view, prev_new_view = old_view, new_view

        # Component 1 (lines 7-14): old edges × new continuation lists;
        # component 2 (lines 15-20): new edges × all continuation lists;
        # D <- mergeResult - O (line 24): dedup the candidates and keep
        # only edges not already present.  Batched joins may stop at the
        # limit mid-iteration: whatever D holds then is still sound.
        new, cut = _join_fresh(
            backend,
            ops,
            old,
            (
                (old_src, old_keys, old_view, [new_view]),
                (new_src, new_keys, new_view, [old_view, new_view]),
            ),
            join_cap,
            memory_limit_edges - edges_in_memory if memory_limit_edges else None,
        )
        if ops.size(new):
            edges_in_memory += ops.size(new)
            added_parts.append(new)

        # A cut iteration skipped joins no later iteration repeats, so it
        # always ends the superstep incomplete.
        if cut or (memory_limit_edges and edges_in_memory > memory_limit_edges):
            completed = ops.size(new) == 0 and not cut
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
