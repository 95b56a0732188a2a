"""Sparse-boolean-matrix CFL-reachability join backend (DESIGN.md §11).

The edge-pair join of :mod:`repro.engine.join` spends its time gathering
*every* continuation edge of every joined target and only then masking
the pairs the grammar sanctions — on dense closures most of that gather
is thrown away, and every duplicate derivation of the same transitive
edge is materialized before the downstream merge collapses it.  Following
*"Optimization of the Context-Free Language Reachability Matrix-Based
Algorithm"* (arXiv 2401.11029), one superstep iteration lowers instead to
boolean sparse matrix products over the (∨, ∧) semiring:

* the flat ``(src, key)`` edge arrays split into per-label CSR blocks
  ``M_l[v, x] = 1  iff  v --l--> x`` in one pass — a stable sort by
  ``(label, row)`` and a single ``bincount`` for every label's
  ``indptr`` — whatever order the edges arrive in;
* each binary production ``K ::= l1 l2`` contributes
  ``M_K |= M_l1 @ M_l2`` — scipy's C matmul merges duplicate derivations
  *inside* the product, so only distinct ``(v, x)`` pairs ever surface;
* product nonzeros map back to packed ``(src, key)`` candidate arrays and
  feed the superstep's pair-set dedup / freshness / merge
  (:mod:`repro.engine.pairset`), leaving Algorithm 1's duplicate check
  (and therefore the closure, byte for byte) untouched.

The superstep's old×new / new×all call discipline arrives for free: the
backend multiplies exactly the (left, right) operand sets the superstep
hands it, so no old×old product is ever formed.  Label blocks are cached
per CSR snapshot and carried across iterations — ``O ∪ D`` reuses the
previous ``O`` blocks verbatim for every label ``D`` did not touch and
merges (boolean-or) only the labels that gained edges.

Under a memory budget the superstep cuts edge-pair joins into left
batches to bound their continuation gather (DESIGN.md §18); matmul joins
stay whole (:attr:`MatmulJoinBackend.gathers_continuations` is False).
A product collapses duplicate derivations as it forms, so its working
set is far below the gather's, and every batch would pay the products'
fixed per-call cost again.

This is the engine's default join whenever scipy imports
(:func:`repro.engine.parallel.make_backend` with no name).  Without
scipy the default is the edge-pair join, and an explicit ``"matmul"``
request degrades to the serial one loudly.  Every label block carries
``dim + 1`` row pointers however few edges it holds, so a join whose id
space is too wide for its operands' edge count
(:data:`MAX_ROW_POINTERS_PER_EDGE`, :data:`MAX_MATMUL_DIM`) falls back
per call to the bit-identical edge-pair kernel.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.join import CsrView, join_edges
from repro.engine.parallel import JoinBackend
from repro.graph import packed
from repro.grammar.grammar import FrozenGrammar

try:  # scipy is an optional dependency (pyproject extra "matmul")
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - exercised via make_backend fallback
    _sparse = None

#: Largest matrix dimension (max vertex id + 1) the backend will build
#: operands for.  scipy's CSR matmul carries O(dim) bookkeeping per
#: product, so pathologically sparse id spaces fall back to the edge-pair
#: kernel instead of paying it.
MAX_MATMUL_DIM = 1 << 26

#: Most label-block row pointers a join may need per operand edge.  A
#: block holds ``dim + 1`` row pointers whatever its edge count, so a
#: join multiplies only while ``num_labels * (dim + 1)`` stays within
#: this many per edge of its operands (left plus rights); a sparser call
#: — an id space far wider than the edges loaded, as a few partitions of
#: a large graph under a memory budget are — takes the edge-pair kernel,
#: whose working set follows the edges.  That keeps one view's blocks
#: (int64 while built) within about 64 bytes per operand edge.  The
#: generated pointer and dataflow graphs need at most 1.5 and 4.6.
MAX_ROW_POINTERS_PER_EDGE = 8


def scipy_available() -> bool:
    """Whether the scipy.sparse dependency of this backend is importable."""
    return _sparse is not None


def _union_block(a, b):
    """Boolean union of two equally-shaped CSR blocks."""
    return a.maximum(b)


class MatmulJoinBackend(JoinBackend):
    """Per-label boolean sparse matmul over the existing backend seam.

    Bit-identical to ``serial``: both emit the same *set* of candidate
    edges per iteration (matmul merely pre-collapses duplicates), and the
    sorted merge downstream makes the sets canonical.
    """

    name = "matmul"
    gathers_continuations = False

    def __init__(
        self,
        grammar: FrozenGrammar,
        num_workers: int = 1,
        head_mask: Optional[np.ndarray] = None,
        requested: Optional[str] = None,
    ) -> None:
        if _sparse is None:  # make_backend guards this; belt and braces
            raise RuntimeError(
                "scipy is required for the matmul join backend "
                "(pip install 'repro[matmul]')"
            )
        super().__init__(grammar, num_workers, head_mask, requested)
        #: Operand dimension for the current superstep.  Vertices never
        #: appear mid-superstep that were absent at initialization (joins
        #: and the unary closure only recombine existing endpoints), so
        #: the dimension is stable once the first non-trivial join ran.
        self._dim = 0
        #: id(view) -> (view, {label: csr_matrix}) for the live iteration's
        #: snapshots.  The view reference keeps the id from being recycled.
        self._view_blocks: Dict[int, Tuple[CsrView, Dict[int, object]]] = {}
        #: Last iteration's blocks, kept one iteration for the O∪D reuse.
        self._retired_blocks: Dict[int, Tuple[CsrView, Dict[int, object]]] = {}

    # -- lifecycle -------------------------------------------------------
    def begin_superstep(self) -> None:
        super().begin_superstep()
        self._dim = 0

    def _release_published(self) -> None:
        # Rotate instead of dropping: the superstep announces the next
        # O = O ∪ D via note_union right after begin_iteration, and the
        # union is built from these retired blocks.
        self._retired_blocks = self._view_blocks
        self._view_blocks = {}

    def end_superstep(self) -> None:
        self._view_blocks = {}
        self._retired_blocks = {}
        super().end_superstep()

    # -- dimension management -------------------------------------------
    @staticmethod
    def _max_id_arrays(src: np.ndarray, keys: np.ndarray) -> int:
        if len(src) == 0:
            return -1
        # Scan both columns: join_arrays callers may pass edges in any
        # order, so src[-1] need not be the largest source.
        return max(int(src.max()), int(packed.targets_of(keys).max()))

    @staticmethod
    def _max_id_view(view: CsrView) -> int:
        if view.num_edges == 0:
            return -1
        return max(
            int(view.vertices[-1]), int(packed.targets_of(view.keys).max())
        )

    def _dense_enough(self, left_src, left_keys, rights) -> bool:
        """Whether this join multiplies; grows the operand dimension if so.

        False when the id space is too wide for the operands' edges
        (:data:`MAX_ROW_POINTERS_PER_EDGE`) or past :data:`MAX_MATMUL_DIM`.
        """
        needed = max(
            self._max_id_arrays(left_src, left_keys),
            max(self._max_id_view(r) for r in rights),
        )
        edges = len(left_src) + sum(r.num_edges for r in rights)
        dim = max(self._dim, needed + 1)
        if self.grammar.num_labels * (dim + 1) > MAX_ROW_POINTERS_PER_EDGE * edges:
            return False
        return self._ensure_dim(needed)

    def _ensure_dim(self, needed: int) -> bool:
        """Grow the operand dimension; returns False when matmul is off.

        Growth drops cached blocks (their shapes no longer compose) —
        this never happens mid-superstep on the engine path because the
        first non-trivial join already sees every vertex involved.
        """
        if needed + 1 > MAX_MATMUL_DIM:
            return False
        if needed + 1 > self._dim:
            self._dim = needed + 1
            self._view_blocks = {}
            self._retired_blocks = {}
        return True

    # -- label blocks ----------------------------------------------------
    def _build_blocks(
        self, src: np.ndarray, keys: np.ndarray
    ) -> Dict[int, object]:
        """Split flat ``(src, key)`` edges, in any order, into per-label CSR.

        One stable sort by ``(label, row)`` lays each label's edges out as
        one contiguous run of ascending rows, and one ``bincount`` over
        the same bucket ids counts every label's rows at once, so each
        block's ``indptr`` is one row of a cumulative sum.  On lexsorted
        input (the engine's) the stable sort also keeps columns ascending
        within a row — the key orders by target first — so those blocks
        are canonical CSR; any other order still yields valid CSR.
        """
        dim = self._dim
        labels = packed.labels_of(keys)
        per_label = np.bincount(labels)
        present = np.flatnonzero(per_label)
        # Bucket id: the label's rank among the present labels selects an
        # indptr row of dim + 1 slots, and row r counts into slot r + 1.
        rank = np.cumsum(per_label > 0) - 1
        bucket = rank[labels] * (dim + 1) + src + 1
        cols = packed.targets_of(keys[np.argsort(bucket, kind="stable")])
        indptr = np.bincount(bucket, minlength=len(present) * (dim + 1))
        indptr = indptr.reshape(len(present), dim + 1)
        np.cumsum(indptr, axis=1, out=indptr)
        ends = np.cumsum(per_label[present])
        data = np.ones(len(cols), dtype=bool)
        blocks: Dict[int, object] = {}
        for i, label in enumerate(present.tolist()):
            lo, hi = ends[i] - per_label[label], ends[i]
            blocks[label] = _sparse.csr_matrix(
                (data[lo:hi], cols[lo:hi], indptr[i]), shape=(dim, dim)
            )
        self.telemetry.matmul_blocks_built += len(blocks)
        return blocks

    def _blocks_for_view(
        self,
        view: CsrView,
        flat: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Dict[int, object]:
        """Label blocks of ``view``, cached while it is a live snapshot.

        ``flat`` is the view's ``(src, key)`` form when the caller has it.
        """
        cached = self._view_blocks.get(id(view))
        if cached is not None:
            return cached[1]
        if flat is None:
            from repro.engine.parallel import expand_view

            flat = expand_view(view)
        blocks = self._build_blocks(*flat)
        if self._is_snapshot(view):
            self._view_blocks[id(view)] = (view, blocks)
        return blocks

    def note_union(
        self, merged: CsrView, a: Optional[CsrView], b: Optional[CsrView]
    ) -> None:
        """``merged = a ∪ b`` (disjoint): reuse blocks instead of rebuilding.

        Called by the superstep when it folds ``D`` into ``O``.  Labels
        untouched by ``b`` keep ``a``'s block verbatim; labels that
        gained edges get a boolean-or merge.  Anything unknown (either
        operand missing from the last iteration's cache) silently falls
        back to a fresh build on first use.
        """
        if a is None or b is None:
            return
        if a.num_edges == 0 or b.num_edges == 0:
            # A trivial union: the merged view *is* the non-empty side
            # (iteration 2's O is iteration 1's D verbatim).
            survivor = self._retired_blocks.get(id(b if a.num_edges == 0 else a))
            if survivor is not None:
                self.telemetry.matmul_blocks_reused += len(survivor[1])
                self._view_blocks[id(merged)] = (merged, survivor[1])
            return
        cached_a = self._retired_blocks.get(id(a))
        cached_b = self._retired_blocks.get(id(b))
        if cached_a is None or cached_b is None:
            return
        a_blocks, b_blocks = cached_a[1], cached_b[1]
        blocks: Dict[int, object] = {}
        for label, block in a_blocks.items():
            other = b_blocks.get(label)
            if other is None:
                blocks[label] = block
                self.telemetry.matmul_blocks_reused += 1
            else:
                blocks[label] = _union_block(block, other)
                self.telemetry.matmul_blocks_built += 1
        for label, block in b_blocks.items():
            if label not in a_blocks:
                blocks[label] = block
                self.telemetry.matmul_blocks_reused += 1
        self._view_blocks[id(merged)] = (merged, blocks)

    # -- joining ---------------------------------------------------------
    def _inline(self, left_src, left_keys, rights):
        """Edge-pair fallback for id spaces too sparse to matmul."""
        results: List[Tuple[np.ndarray, np.ndarray]] = []
        started = time.perf_counter()
        for right in rights:
            results.append(
                join_edges(left_src, left_keys, right, self.grammar, self.head_mask)
            )
            self.telemetry.record_chunks([len(left_src)])
        elapsed = time.perf_counter() - started
        self.telemetry.pool_seconds += elapsed
        self.telemetry.serial_estimate_seconds += elapsed
        return self._concat(results)

    def _multiply(
        self,
        left_blocks: Dict[int, object],
        right_blocks_list: Sequence[Dict[int, object]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        out_src: List[np.ndarray] = []
        out_keys: List[np.ndarray] = []
        binary_index = self.grammar.binary_index
        for l1, left_block in left_blocks.items():
            if not self.head_mask[l1]:
                continue
            slot_row = binary_index[l1]
            for right_blocks in right_blocks_list:
                for l2, right_block in right_blocks.items():
                    slot = int(slot_row[l2])
                    if slot < 0:
                        continue
                    product = left_block @ right_block
                    self.telemetry.matmul_products += 1
                    if product.nnz == 0:
                        continue
                    self.telemetry.matmul_nnz += int(product.nnz)
                    coo = product.tocoo()
                    rows = coo.row.astype(np.int64, copy=False)
                    base = coo.col.astype(np.int64, copy=False) << np.int64(
                        packed.LABEL_BITS
                    )
                    for lhs in self.grammar.binary_results[slot]:
                        out_src.append(rows)
                        out_keys.append(base | np.int64(lhs))
        if not out_src:
            return packed.EMPTY, packed.EMPTY
        return np.concatenate(out_src), np.concatenate(out_keys)

    def join_edge_list(self, left_src, left_keys, left_view, rights):
        rights = [r for r in rights if r.num_edges]
        if len(left_src) == 0 or not rights:
            return packed.EMPTY, packed.EMPTY
        if not self._dense_enough(left_src, left_keys, rights):
            return self._inline(left_src, left_keys, rights)
        started = time.perf_counter()
        left_blocks = self._blocks_for_view(left_view, (left_src, left_keys))
        right_blocks_list = [self._blocks_for_view(r) for r in rights]
        src, keys = self._multiply(left_blocks, right_blocks_list)
        elapsed = time.perf_counter() - started
        self.telemetry.record_chunks([len(left_src)] * len(rights))
        self.telemetry.pool_seconds += elapsed
        self.telemetry.serial_estimate_seconds += elapsed
        return src, keys

    def join_arrays(self, left_src, left_keys, rights):
        """One-shot join over raw arrays (no snapshot to cache against)."""
        rights = [r for r in rights if r.num_edges]
        if len(left_src) == 0 or not rights:
            return packed.EMPTY, packed.EMPTY
        if not self._dense_enough(left_src, left_keys, rights):
            return self._inline(left_src, left_keys, rights)
        started = time.perf_counter()
        left_blocks = self._build_blocks(left_src, left_keys)
        right_blocks_list = [self._blocks_for_view(r) for r in rights]
        src, keys = self._multiply(left_blocks, right_blocks_list)
        elapsed = time.perf_counter() - started
        self.telemetry.record_chunks([len(left_src)] * len(rights))
        self.telemetry.pool_seconds += elapsed
        self.telemetry.serial_estimate_seconds += elapsed
        return src, keys
