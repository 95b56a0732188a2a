"""Output checks against references the engine under test did not compute.

* :func:`reference_closure` — a semi-naive matrix closure (one boolean
  scipy CSR matrix per label, ``M_A |= M_B @ M_C`` to a fixed point)
  written here from the grammar's production list alone.
* :func:`dense_transitive_closure` — a numpy boolean-matrix transitive
  closure for the single-label ``dense-reach*`` workloads.
* :func:`datalog_agrees` — the repo's pure-Python Datalog baseline on a
  reduced-scale instance (too slow at full scale).
* :func:`score_reports` — checker verdicts against the generator's
  ground truth.

Closures are compared by edge count and CRC32 of the canonical lexsorted
``(src, packed key)`` arrays, the engine's own output order.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Digest = Tuple[int, int]  # (edge count, CRC32)

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def expected(section: str, seed: int):
    """The checked-in answer for ``section`` at ``seed`` (full sizes), or None.

    ``expected.json`` anchors the references themselves: closure digests per
    instance, and per-checker ``(tp, fp, fn)`` tuples for ``service-mix``.
    A run prints what it computed (``reference_digests`` / ``scores`` in its
    ``input`` line), which is how an entry is written after sizes change.
    """
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(section, {}).get(str(seed))


def digest_edges(src: np.ndarray, keys: np.ndarray) -> Digest:
    """Edge count and CRC32 of ``(src, keys)`` in lexsorted order."""
    src = np.ascontiguousarray(src, dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    order = np.lexsort((keys, src))
    crc = zlib.crc32(src[order].tobytes())
    crc = zlib.crc32(keys[order].tobytes(), crc)
    return int(len(src)), int(crc)


def digest_computation(computation) -> Digest:
    graph = computation.to_memgraph()
    return digest_edges(graph.src, graph.keys)


def _pack(dst: np.ndarray, label: int) -> np.ndarray:
    from repro.graph import packed

    return (dst.astype(np.int64) << np.int64(packed.LABEL_BITS)) | np.int64(label)


def reference_closure(graph, grammar) -> Digest:
    """Digest of the grammar-guided closure of ``graph`` (labels aligned)."""
    import scipy.sparse as sp

    from repro.graph import packed

    n = graph.num_vertices
    num_labels = grammar.num_labels
    src = np.asarray(graph.src)
    dst = packed.targets_of(np.asarray(graph.keys))
    lab = packed.labels_of(np.asarray(graph.keys))

    empty = sp.csr_matrix((n, n), dtype=np.int8)

    def matrix(mask: np.ndarray):
        m = sp.csr_matrix(
            (np.ones(int(mask.sum()), dtype=np.int8), (src[mask], dst[mask])),
            shape=(n, n),
        )
        m.sum_duplicates()
        m.data[:] = 1
        return m

    full = [matrix(lab == l) if np.any(lab == l) else empty for l in range(num_labels)]
    delta = list(full)
    productions = [(p.lhs, p.rhs1, p.rhs2) for p in grammar.productions]
    while any(d.nnz for d in delta):
        derived: List[Optional[object]] = [None] * num_labels
        for lhs, rhs1, rhs2 in productions:
            if rhs2 is None:
                found = delta[rhs1]
            else:
                found = None
                if delta[rhs1].nnz and full[rhs2].nnz:
                    found = delta[rhs1] @ full[rhs2]
                if delta[rhs2].nnz and full[rhs1].nnz:
                    other = full[rhs1] @ delta[rhs2]
                    found = other if found is None else found + other
                if found is None:
                    continue
            if found.nnz:
                derived[lhs] = found if derived[lhs] is None else derived[lhs] + found
        delta = []
        for l in range(num_labels):
            found = derived[l]
            if found is None:
                delta.append(empty)
                continue
            found = found.tocsr()
            found.data[:] = 1
            found = found - found.multiply(full[l])
            found.eliminate_zeros()
            delta.append(found)
            if found.nnz:
                full[l] = full[l] + found
    out_src, out_keys = [], []
    for l, m in enumerate(full):
        coo = m.tocoo()
        out_src.append(coo.row.astype(np.int64))
        out_keys.append(_pack(coo.col, l))
    return digest_edges(np.concatenate(out_src), np.concatenate(out_keys))


def dense_transitive_closure(
    n: int, src: np.ndarray, dst: np.ndarray, edge_label: int, path_label: int
) -> Digest:
    """Digest of ``R ::= E | R E`` over a digraph, by boolean squaring."""
    reach = np.zeros((n, n), dtype=bool)
    reach[src, dst] = True
    edges = reach.copy()
    while True:
        # float32 matmul: exact for path counts far below 2**24 per entry
        # once clipped back to bool each round.
        step = (reach.astype(np.float32) @ reach.astype(np.float32)) > 0
        grown = reach | step
        if np.array_equal(grown, reach):
            break
        reach = grown
    e_src, e_dst = np.nonzero(edges)
    r_src, r_dst = np.nonzero(reach)
    return digest_edges(
        np.concatenate([e_src, r_src]),
        np.concatenate([_pack(e_dst, edge_label), _pack(r_dst, path_label)]),
    )


def datalog_agrees(graph, grammar, computation) -> bool:
    """Does ``computation`` equal the Datalog baseline's closure of ``graph``?"""
    from repro.baselines.datalog import run_datalog
    from repro.graph import packed

    result = run_datalog(graph, grammar)
    if result.status != "ok":
        return False
    want = {
        (x, y, grammar.label_id(rel))
        for rel, pairs in result.relations.items()
        for x, y in pairs
    }
    got = computation.to_memgraph()
    triples = set(
        zip(
            np.asarray(got.src).tolist(),
            packed.targets_of(np.asarray(got.keys)).tolist(),
            packed.labels_of(np.asarray(got.keys)).tolist(),
        )
    )
    return triples == want


# ---------------------------------------------------------------------------
# checker verdicts
# ---------------------------------------------------------------------------

#: Checkers whose augmented verdicts must match the ground truth exactly.
EXACT_CHECKERS = ("Taint", "Async", "Race")

MatchKey = Tuple[str, str, Optional[str]]


def report_keys(reports: Iterable[Dict[str, object]]) -> frozenset:
    """The ``(checker, function, variable)`` keys scoring matches on."""
    return frozenset((r["checker"], r["function"], r["variable"]) for r in reports)


def score_reports(
    keys: Iterable[MatchKey], truth: Sequence, checkers: Sequence[str]
) -> Dict[str, Tuple[int, int, int]]:
    """Per-checker ``(tp, fp, fn)`` of reported ``keys`` against ``truth``."""
    keys = set(keys)
    out = {}
    for name in checkers:
        want = {t.match_key() for t in truth if t.checker == name}
        got = {k for k in keys if k[0] == name}
        out[name] = (len(got & want), len(got - want), len(want - got))
    return out


def verdict_failures(
    scores: Dict[str, Tuple[int, int, int]],
    expected: Optional[Dict[str, Sequence[int]]],
) -> List[str]:
    """Why the scored verdicts are wrong; empty when they are right.

    Taint/Async/Race must have precision = recall = 1.0 on every seed;
    the other checkers must equal the checked-in tuples when the seed has
    any (``expected`` is None otherwise).
    """
    problems = []
    for name in EXACT_CHECKERS:
        tp, fp, fn = scores[name]
        if fp or fn or not tp:
            problems.append(f"{name}: tp={tp} fp={fp} fn={fn}, want fp=fn=0")
    if expected is not None:
        for name, want in expected.items():
            if list(scores.get(name, ())) != list(want):
                problems.append(f"{name}: {scores.get(name)} != checked-in {tuple(want)}")
    return problems
