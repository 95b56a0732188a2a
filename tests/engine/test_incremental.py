"""Incremental delta re-closure through the closure store (DESIGN.md §14).

The contract under test: after an edit that only *adds* input edges over
the same vertex set, the store seeds the old fixed point with the delta
and re-runs supersteps from there — producing the byte-identical closure
a cold run computes while deriving under half of its edges, in no more
supersteps.  Edits that delete edges or renumber vertices fall back to a
cold run.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.engine.checkpoint import graph_fingerprint
from repro.engine.store import ClosureStore, edge_diff
from repro.frontend.graphs import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.graph import MemGraph
from repro.workloads.programs import workload_by_name

#: Small enough to finish quickly, big enough for multiple partitions.
WORKLOAD_SCALES = {"linux": 0.1, "postgresql": 0.06, "httpd": 0.15}


def function_edit(pg, graph):
    """The graph image of an edit to one function.

    Adds new assignment (``A``) flows between two variables of a single
    function, wired in every clone context — the kind of delta a one-line
    edit to that function's body produces.  Same vertex set, additions
    only, so the store's incremental path applies.
    """
    label = graph.label_names.index("A")
    namer = pg.namer
    for fname in sorted(pg.lowered.functions):
        func = pg.lowered.functions[fname]
        names = sorted(set(func.params) | set(func.locals))
        if len(names) < 2:
            continue
        for a, b in itertools.combinations(names, 2):
            by_ctx = {namer.context(v): v for v in namer.vertices_for(fname, a)}
            extra = []
            for vb in namer.vertices_for(fname, b):
                va = by_ctx.get(namer.context(vb))
                if va is not None and not graph.has_edge(va, vb, label):
                    extra.append((va, vb, label))
            if extra:
                return fname, graph.with_edges(extra)
    raise RuntimeError("no function with two connectable variables")


def closure_arrays(computation):
    final = computation.load_resident().to_memgraph()
    return final.src, final.keys, final.num_vertices


# ---------------------------------------------------------------------------
# edge_diff — the additions/deletions classifier
# ---------------------------------------------------------------------------


class TestEdgeDiff:
    def test_pure_additions(self):
        base = MemGraph.from_edges([(0, 1, 0), (1, 2, 0)], label_names=["E"])
        new = MemGraph.from_edges(
            [(0, 1, 0), (1, 2, 0), (2, 3, 0)], label_names=["E"]
        )
        added_mask, deleted = edge_diff(base.src, base.keys, new.src, new.keys)
        assert deleted == 0
        assert list(new.src[added_mask]) == [2]

    def test_deletion_detected(self):
        base = MemGraph.from_edges([(0, 1, 0), (1, 2, 0)], label_names=["E"])
        new = MemGraph.from_edges([(0, 1, 0)], label_names=["E"])
        _, deleted = edge_diff(base.src, base.keys, new.src, new.keys)
        assert deleted == 1

    def test_identical_graphs(self):
        g = MemGraph.from_edges([(0, 1, 0), (1, 2, 1)], label_names=["E", "F"])
        added_mask, deleted = edge_diff(g.src, g.keys, g.src, g.keys)
        assert deleted == 0
        assert not added_mask.any()

    def test_label_change_is_add_plus_delete(self):
        base = MemGraph.from_edges([(0, 1, 0)], label_names=["E", "F"])
        new = MemGraph.from_edges([(0, 1, 1)], label_names=["E", "F"])
        added_mask, deleted = edge_diff(base.src, base.keys, new.src, new.keys)
        assert deleted == 1
        assert added_mask.sum() == 1


# ---------------------------------------------------------------------------
# graph_fingerprint — satellite: the key covers the partition layout
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_partition_table_changes_key(self, chain_graph):
        plain = graph_fingerprint(chain_graph)
        one = graph_fingerprint(chain_graph, partition_table=[[0, 10]])
        two = graph_fingerprint(
            chain_graph, partition_table=[[0, 5], [5, 10]]
        )
        assert len({plain, one, two}) == 3

    def test_same_table_same_key(self, chain_graph):
        table = [[0, 5], [5, 10]]
        assert graph_fingerprint(
            chain_graph, partition_table=table
        ) == graph_fingerprint(chain_graph, partition_table=[list(t) for t in table])


# ---------------------------------------------------------------------------
# the store resolution paths, per workload
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOAD_SCALES))
def test_single_function_edit_recloses_incrementally(name, tmp_path):
    """Cold → edit one function → byte-identical closure, < 50% of the work."""
    pg = workload_by_name(name, scale=WORKLOAD_SCALES[name]).compile()
    graph = pointer_graph(pg)
    grammar = pointsto_grammar_extended()
    max_edges = max(64, graph.num_edges // 4)

    store = ClosureStore(tmp_path / "store", max_edges_per_partition=max_edges)
    cold_base = store.closure(grammar, graph)
    assert cold_base.stats.closure_source == "cold"
    cold_supersteps = cold_base.stats.num_supersteps
    assert cold_supersteps > 0

    fname, mutated = function_edit(pg, graph)
    assert mutated.num_vertices == graph.num_vertices
    assert mutated.num_edges > graph.num_edges

    incremental = store.closure(grammar, mutated)
    stats = incremental.stats
    assert stats.closure_source == "incremental"
    assert stats.delta_added_edges == mutated.num_edges - graph.num_edges
    assert stats.delta_seed_partitions >= 1

    # A fresh store never saw the base: its run on the mutated graph is
    # the from-scratch reference the incremental result must match.
    reference_store = ClosureStore(
        tmp_path / "reference", max_edges_per_partition=max_edges
    )
    reference = reference_store.closure(grammar, mutated)
    assert reference.stats.closure_source == "cold"

    inc_src, inc_keys, inc_nv = closure_arrays(incremental)
    ref_src, ref_keys, ref_nv = closure_arrays(reference)
    assert inc_nv == ref_nv
    assert np.array_equal(inc_src, ref_src)
    assert np.array_equal(inc_keys, ref_keys)

    # The delta re-closure must derive under half the edges the cold run
    # derives (the edit touched one function, not the whole program), in
    # no more supersteps.  Supersteps alone no longer measure the work:
    # budget-wide sets close the cold run in a handful too.
    inc_work, cold_work = stats.total_edges_added, reference.stats.total_edges_added
    assert 0 < inc_work * 2 < cold_work, (
        f"{name}: incremental derived {inc_work} edges vs cold {cold_work}"
    )
    assert 0 < stats.num_supersteps <= reference.stats.num_supersteps, (
        f"{name}: incremental took {stats.num_supersteps} supersteps "
        f"vs cold {reference.stats.num_supersteps}"
    )

    # Third resolution path: asking again is an exact cache hit — the
    # finished entry restores with zero supersteps.
    again = store.closure(grammar, mutated)
    assert again.stats.closure_source == "cache"
    assert again.stats.num_supersteps == 0
    hit_src, hit_keys, _ = closure_arrays(again)
    assert np.array_equal(hit_src, ref_src)
    assert np.array_equal(hit_keys, ref_keys)

    sources = [m["source"] for m in store.entries()]
    assert sorted(sources) == ["cold", "incremental"]


def test_deletion_falls_back_to_cold(tmp_path, reach):
    base = MemGraph.from_edges(
        [(i, i + 1, 0) for i in range(8)], label_names=["E"]
    )
    store = ClosureStore(tmp_path / "store", max_edges_per_partition=4)
    first = store.closure(reach, base)
    assert first.stats.closure_source == "cold"

    # Drop one edge and add another: deletions break the monotone
    # seeding argument, so the store must recompute from scratch.
    smaller = MemGraph.from_edges(
        [(i, i + 1, 0) for i in range(7)] + [(7, 0, 0)],
        label_names=["E"],
        num_vertices=base.num_vertices,
    )
    second = store.closure(reach, smaller)
    assert second.stats.closure_source == "cold"
    assert second.stats.delta_added_edges == 0


def test_vertex_renumbering_falls_back_to_cold(tmp_path, reach):
    base = MemGraph.from_edges(
        [(i, i + 1, 0) for i in range(8)], label_names=["E"]
    )
    store = ClosureStore(tmp_path / "store", max_edges_per_partition=4)
    store.closure(reach, base)

    grown = MemGraph.from_edges(
        [(i, i + 1, 0) for i in range(9)], label_names=["E"]
    )
    assert grown.num_vertices != base.num_vertices
    second = store.closure(reach, grown)
    assert second.stats.closure_source == "cold"


def test_incremental_noop_delta_is_cache_hit(tmp_path, reach, chain_graph):
    """The same graph twice resolves as a cache hit, not a re-closure."""
    store = ClosureStore(tmp_path / "store", max_edges_per_partition=4)
    first = store.closure(reach, chain_graph)
    second = store.closure(reach, chain_graph)
    assert first.stats.closure_source == "cold"
    assert second.stats.closure_source == "cache"
    a_src, a_keys, _ = closure_arrays(first)
    b_src, b_keys, _ = closure_arrays(second)
    assert np.array_equal(a_src, b_src)
    assert np.array_equal(a_keys, b_keys)


def test_sizing_keys_separate_entries(tmp_path, reach, chain_graph):
    """Different partition sizing must not share cached manifests."""
    coarse = ClosureStore(tmp_path / "store", max_edges_per_partition=100)
    fine = ClosureStore(tmp_path / "store", max_edges_per_partition=3)
    a = coarse.closure(reach, chain_graph)
    b = fine.closure(reach, chain_graph)
    # Same root, different sizing: the second store may reuse the first
    # entry *incrementally* (same grammar, zero-delta) but never as an
    # exact hit, and both must agree on the closure.
    assert b.stats.closure_source != "cache"
    a_g = a.load_resident().to_memgraph()
    b_g = b.load_resident().to_memgraph()
    assert np.array_equal(a_g.src, b_g.src)
    assert np.array_equal(a_g.keys, b_g.keys)
