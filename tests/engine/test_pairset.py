"""The packed pair-set kernel against its lexsort oracle (DESIGN.md §17).

Three layers of evidence that packing ``(src, key)`` into one int64 never
changes a closure: the primitives agree with :class:`LexsortPairs` (and a
brute-force tuple set) on arbitrary inputs and at the bit-budget
boundary; ``run_superstep`` is byte-identical with the packed form forced
off; and the two other users of the primitives — the distributed
coordinator's delta application and the closure store's incremental
seeding — still reproduce the cold closure.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.pairset as pairset
from repro.engine import GraspanEngine, make_backend, run_superstep
from repro.engine.checkpoint import RunJournal
from repro.engine.matmul import scipy_available
from repro.engine.pairset import (
    LexsortPairs,
    PackedPairs,
    pairs_for_arrays,
    pairs_for_bounds,
)
from repro.engine.store import ClosureStore
from repro.frontend.graphs import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.graph import from_pairs, packed
from repro.workloads.programs import workload_by_name

ORACLE = LexsortPairs()


def arrays(pairs):
    if not pairs:
        return packed.EMPTY, packed.EMPTY
    src = np.asarray([s for s, _ in pairs], dtype=np.int64)
    keys = np.asarray([k for _, k in pairs], dtype=np.int64)
    return src, keys


def as_tuples(pairs):
    return [(int(s), int(k)) for s, k in zip(*pairs)]


def assert_pairs_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def force_lexsort(monkeypatch):
    """No id fits a negative bit budget: every superstep takes the fallback."""
    monkeypatch.setattr(pairset, "PACK_BITS", -1)


#: Raw pairs drawn from a small id space, so duplicates and overlaps
#: between two draws are common; includes empty and single-element lists.
raw_pairs = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 40)), max_size=40
)


# ---------------------------------------------------------------------------
# primitives: packed == lexsort oracle == brute force
# ---------------------------------------------------------------------------


class TestPrimitivesMatchOracle:
    @given(raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_dedup(self, pairs):
        raw = arrays(pairs)
        ops = pairs_for_arrays(raw)
        assert isinstance(ops, PackedPairs)
        got = ops.decode(ops.dedup(ops.encode(*raw)))
        assert_pairs_equal(got, ORACLE.dedup(raw))
        assert as_tuples(got) == sorted(set(pairs))

    @given(raw_pairs, raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_contains_and_difference(self, needles, haystack):
        a, b = ORACLE.dedup(arrays(needles)), ORACLE.dedup(arrays(haystack))
        ops = pairs_for_arrays(a, b)
        pa, pb = ops.encode(*a), ops.encode(*b)
        mask = ops.contains(pa, pb)
        assert np.array_equal(mask, ORACLE.contains(a, b))
        assert mask.tolist() == [p in set(haystack) for p in as_tuples(a)]
        got = ops.decode(ops.difference(pa, pb))
        assert_pairs_equal(got, ORACLE.difference(a, b))
        assert as_tuples(got) == sorted(set(needles) - set(haystack))

    @given(raw_pairs, raw_pairs)
    @settings(max_examples=100, deadline=None)
    def test_union_of_disjoint_sets(self, left, right):
        a = ORACLE.dedup(arrays(left))
        b = ORACLE.difference(ORACLE.dedup(arrays(right)), a)
        ops = pairs_for_arrays(a, b)
        got = ops.decode(ops.union(ops.encode(*a), ops.encode(*b)))
        assert_pairs_equal(got, ORACLE.union(a, b))
        assert as_tuples(got) == sorted(set(left) | set(right))

    def test_all_duplicates_collapse_to_one(self):
        raw = arrays([(7, 9)] * 50)
        ops = pairs_for_arrays(raw)
        assert as_tuples(ops.decode(ops.dedup(ops.encode(*raw)))) == [(7, 9)]
        assert as_tuples(ORACLE.dedup(raw)) == [(7, 9)]

    @pytest.mark.parametrize("ops", [PackedPairs(8), LexsortPairs()])
    def test_empty_operands(self, ops):
        empty = ops.encode(packed.EMPTY, packed.EMPTY)
        one = ops.encode(*arrays([(1, 2)]))
        assert ops.size(ops.dedup(empty)) == 0
        assert ops.size(ops.concat([])) == 0
        assert ops.contains(one, empty).tolist() == [False]
        assert ops.contains(empty, one).tolist() == []
        assert as_tuples(ops.decode(ops.difference(one, empty))) == [(1, 2)]
        assert as_tuples(ops.decode(ops.union(empty, one))) == [(1, 2)]
        assert as_tuples(ops.decode(ops.union(one, empty))) == [(1, 2)]


# ---------------------------------------------------------------------------
# the bit budget: what packs, what falls back, same answers either side
# ---------------------------------------------------------------------------


class TestBitBudget:
    def test_packs_past_the_old_fixed_split(self):
        """Sources ≥ 2³¹ or keys ≥ 2³² pack as long as the *sum* fits."""
        assert isinstance(pairs_for_bounds(2**40, 2**20), PackedPairs)
        assert isinstance(pairs_for_bounds(2**10, 2**50), PackedPairs)

    @pytest.mark.parametrize("max_src", [2**31 - 1, 2**31, 5])
    def test_fallback_starts_one_bit_past_the_budget(self, max_src):
        key_bits = pairset.PACK_BITS - max_src.bit_length()
        assert isinstance(pairs_for_bounds(max_src, 2**key_bits), PackedPairs)
        assert isinstance(
            pairs_for_bounds(max_src, 2**key_bits + 1), LexsortPairs
        )

    @pytest.mark.parametrize("max_src", [2**31 - 1, 2**31])
    @pytest.mark.parametrize("past", [0, 1])
    def test_boundary_ids_agree_with_brute_force(self, max_src, past):
        """Largest source beside the largest key that still packs
        (``past=0``) and the first that does not (``past=1``)."""
        top_key = 2 ** (pairset.PACK_BITS - max_src.bit_length()) - 1 + past
        base = [(0, top_key), (3, 7), (max_src, top_key)]
        cand = [(0, top_key), (3, top_key), (max_src, 5), (max_src, 5)]
        ops = pairs_for_arrays(arrays(base), arrays(cand))
        assert isinstance(ops, LexsortPairs if past else PackedPairs)
        base_set = ops.dedup(ops.encode(*arrays(base)))
        cand_set = ops.dedup(ops.encode(*arrays(cand)))
        fresh = ops.difference(cand_set, base_set)
        assert as_tuples(ops.decode(fresh)) == sorted(set(cand) - set(base))
        merged = ops.decode(ops.union(base_set, fresh))
        assert as_tuples(merged) == sorted(set(base) | set(cand))

    def test_large_ids_take_the_fallback_and_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            base = list(zip(rng.integers(0, 2**62, 30), rng.integers(0, 200, 30)))
            extra = list(zip(rng.integers(0, 2**62, 30), rng.integers(0, 200, 30)))
            cand = base[:15] + extra
            ops = pairs_for_arrays(arrays(base), arrays(cand))
            assert isinstance(ops, LexsortPairs)
            fresh = ops.difference(
                ops.dedup(arrays(cand)), ops.dedup(arrays(base))
            )
            want = sorted({(int(s), int(k)) for s, k in cand} - set(
                (int(s), int(k)) for s, k in base
            ))
            assert as_tuples(fresh) == want


# ---------------------------------------------------------------------------
# run_superstep: byte-identical with the packed form forced off
# ---------------------------------------------------------------------------


def random_adjacency(rnd, num_labels, vertices=25, edges=70):
    by_src = {}
    for _ in range(edges):
        by_src.setdefault(rnd.randrange(vertices), []).append(
            (rnd.randrange(vertices), rnd.randrange(num_labels))
        )
    return {v: from_pairs(pairs) for v, pairs in by_src.items()}


def assert_results_identical(a, b):
    assert a.completed == b.completed
    assert a.iterations == b.iterations
    for name in ("src", "keys", "added_src", "added_keys"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


BACKENDS = ["serial", "thread", "process"] + (
    ["matmul"] if scipy_available() else []
)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_superstep_identical_without_packing(
    backend_name, monkeypatch, reach, dyck, pointsto_ext
):
    import random

    def run(adjacency, grammar, **kwargs):
        with make_backend(backend_name, grammar, 2) as backend:
            return run_superstep(dict(adjacency), grammar, backend=backend, **kwargs)

    rnd = random.Random(41)
    cases = [
        (random_adjacency(rnd, labels), grammar, {})
        for grammar, labels in ((reach, 1), (dyck, 2), (pointsto_ext, 4))
        for _ in range(2)
    ]
    e = reach.label_id("E")
    chain = {i: from_pairs([(i + 1, e)]) for i in range(30)}
    cases.append((chain, reach, {"memory_limit_edges": 40}))

    packed_results = [run(adj, g, **kw) for adj, g, kw in cases]
    assert not packed_results[-1].completed  # the early stop did trip
    force_lexsort(monkeypatch)
    for (adj, g, kw), want in zip(cases, packed_results):
        assert_results_identical(run(adj, g, **kw), want)


# ---------------------------------------------------------------------------
# the other two users: coordinator delta application, store seeding
# ---------------------------------------------------------------------------


def closure_arrays(computation):
    final = computation.load_resident().to_memgraph()
    return np.asarray(final.src).copy(), np.asarray(final.keys).copy()


@pytest.fixture(scope="module")
def httpd():
    return workload_by_name("httpd", scale=0.1).compile()


def test_coordinator_apply_identical_either_form(httpd, tmp_path, monkeypatch):
    graph = pointer_graph(httpd)
    grammar = pointsto_grammar_extended()
    max_edges = max(100, graph.num_edges // 2)

    def closure(workdir, **kwargs):
        engine = GraspanEngine(
            grammar, max_edges_per_partition=max_edges, workdir=workdir, **kwargs
        )
        return closure_arrays(engine.run(graph))

    distributed = {"parallel_backend": "distributed", "distributed": {"workers": 2}}
    serial = closure(tmp_path / "serial")
    assert_pairs_equal(closure(tmp_path / "packed", **distributed), serial)
    force_lexsort(monkeypatch)
    assert_pairs_equal(closure(tmp_path / "lexsort", **distributed), serial)


def test_store_seeding_identical_either_form(httpd, tmp_path, monkeypatch):
    from tests.engine.test_incremental import function_edit

    graph = pointer_graph(httpd)
    grammar = pointsto_grammar_extended()
    max_edges = max(64, graph.num_edges // 4)
    _, mutated = function_edit(httpd, graph)

    def incremental(root):
        store = ClosureStore(root, max_edges_per_partition=max_edges)
        store.closure(grammar, graph)
        computation = store.closure(grammar, mutated)
        assert computation.stats.closure_source == "incremental"
        return closure_arrays(computation)

    cold = closure_arrays(
        ClosureStore(
            tmp_path / "cold", max_edges_per_partition=max_edges
        ).closure(grammar, mutated)
    )
    assert_pairs_equal(incremental(tmp_path / "packed"), cold)
    force_lexsort(monkeypatch)
    assert_pairs_equal(incremental(tmp_path / "lexsort"), cold)


# ---------------------------------------------------------------------------
# manifests: same bytes as json.dump wrote, relative slot names unchanged
# ---------------------------------------------------------------------------


def test_manifest_bytes_equal_json_dump(tmp_path, chain_graph, reach):
    engine = GraspanEngine(reach, max_edges_per_partition=3, workdir=tmp_path)
    engine.run(chain_graph)
    journal = RunJournal(tmp_path)
    manifest = journal.load_manifest()
    assert len(manifest["slots"]) > 1
    for slot in manifest["slots"]:
        assert slot["file"] == (tmp_path / slot["file"]).name  # bare file name
        assert (tmp_path / slot["file"]).exists()

    reference = io.StringIO()
    json.dump(manifest, reference, separators=(",", ":"))
    journal.commit(manifest)
    assert journal.manifest_path.read_text(encoding="utf-8") == reference.getvalue()
