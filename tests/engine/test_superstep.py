"""Tests for the superstep fixed point (Algorithm 1)."""

import numpy as np

from repro.engine import naive_closure, run_superstep
from repro.engine.parallel import make_backend
from repro.graph import from_pairs, packed


def adjacency_of(edges):
    by_src = {}
    for s, d, l in edges:
        by_src.setdefault(s, []).append((d, l))
    return {v: from_pairs(pairs) for v, pairs in by_src.items()}


def closure_edges(result):
    out = set()
    for v, keys in result.adjacency.items():
        for d, l in packed.to_pairs(keys):
            out.add((v, d, l))
    return out


class TestFixpoint:
    def test_chain_closure(self, reach):
        e = reach.label_id("E")
        edges = [(i, i + 1, e) for i in range(6)]
        result = run_superstep(adjacency_of(edges), reach)
        assert result.completed
        assert closure_edges(result) == naive_closure(edges, reach)

    def test_cycle_terminates(self, reach):
        e = reach.label_id("E")
        edges = [(0, 1, e), (1, 2, e), (2, 0, e)]
        result = run_superstep(adjacency_of(edges), reach)
        assert result.completed
        assert closure_edges(result) == naive_closure(edges, reach)

    def test_self_loop(self, reach):
        e = reach.label_id("E")
        edges = [(0, 0, e)]
        result = run_superstep(adjacency_of(edges), reach)
        assert closure_edges(result) == naive_closure(edges, reach)

    def test_empty_adjacency(self, reach):
        result = run_superstep({}, reach)
        assert result.completed
        assert result.edges_added == 0
        assert result.iterations == 0

    def test_no_matches_single_iteration(self, dyck):
        op = dyck.label_id("OP")
        result = run_superstep(adjacency_of([(0, 1, op)]), dyck)
        assert result.completed
        assert result.edges_added == 0
        assert result.iterations == 1

    def test_added_arrays_match_delta(self, reach):
        e = reach.label_id("E")
        edges = [(0, 1, e), (1, 2, e)]
        result = run_superstep(adjacency_of(edges), reach)
        added = {
            (int(s), int(k) >> packed.LABEL_BITS, int(k) & packed.LABEL_MASK)
            for s, k in zip(result.added_src, result.added_keys)
        }
        expected = naive_closure(edges, reach) - set(edges)
        assert added == expected

    def test_dyck_closure(self, dyck):
        op, cl = dyck.label_id("OP"), dyck.label_id("CL")
        edges = [(0, 1, op), (1, 2, op), (2, 3, cl), (3, 4, cl), (4, 5, op), (5, 6, cl)]
        result = run_superstep(adjacency_of(edges), dyck)
        assert closure_edges(result) == naive_closure(edges, dyck)


class TestMemoryLimit:
    def test_early_stop_sets_incomplete(self, reach):
        e = reach.label_id("E")
        edges = [(i, i + 1, e) for i in range(30)]
        result = run_superstep(adjacency_of(edges), reach, memory_limit_edges=40)
        assert not result.completed
        # partial state is still sound: a subset of the true closure
        oracle = naive_closure(edges, reach)
        assert closure_edges(result) <= oracle
        assert set(edges) <= closure_edges(result)

    def test_limit_zero_disables(self, reach):
        e = reach.label_id("E")
        edges = [(i, i + 1, e) for i in range(30)]
        result = run_superstep(adjacency_of(edges), reach, memory_limit_edges=0)
        assert result.completed


class TestThreads:
    def test_threaded_matches_sequential(self, dyck):
        import random

        rnd = random.Random(5)
        edges = list(
            {
                (rnd.randrange(15), rnd.randrange(15), rnd.randrange(2))
                for _ in range(50)
            }
        )
        # Named backends: the default is matmul whenever scipy is installed.
        with make_backend("serial", dyck, 1) as serial:
            seq = run_superstep(adjacency_of(edges), dyck, backend=serial)
        with make_backend("thread", dyck, 4) as thread:
            par = run_superstep(adjacency_of(edges), dyck, backend=thread)
        assert closure_edges(seq) == closure_edges(par)
        assert seq.edges_added == par.edges_added


class TestFlattenAdjacency:
    """Dict input must be normalised to the sorted/dup-free invariant."""

    def test_unsorted_dict_rows_are_repaired(self, reach):
        """Regression: an unsorted, duplicated per-vertex key array used
        to flow into the merge machinery unchecked, silently corrupting
        the closure; it must now give the same result as clean input."""
        e = reach.label_id("E")
        clean = adjacency_of([(0, 1, e), (0, 2, e), (1, 2, e), (2, 3, e)])
        messy = dict(clean)
        # Vertex 0's row: reversed order plus a duplicate edge.
        messy[0] = np.asarray(
            [packed.pack(2, e), packed.pack(1, e), packed.pack(2, e)],
            dtype=np.int64,
        )
        got = run_superstep(messy, reach)
        want = run_superstep(clean, reach)
        assert closure_edges(got) == closure_edges(want)
        assert got.edges_added == want.edges_added

    def test_flatten_sorts_and_dedups(self, reach):
        from repro.engine.superstep import _flatten_adjacency

        e = reach.label_id("E")
        src, keys = _flatten_adjacency(
            {4: np.asarray([packed.pack(9, e), packed.pack(1, e), packed.pack(9, e)], dtype=np.int64)}
        )
        assert list(src) == [4, 4]
        assert list(keys) == [packed.pack(1, e), packed.pack(9, e)]
