"""Matmul backend equivalence: byte-identical to the serial edge-pair join.

The contract (DESIGN.md §11): lowering an iteration to per-label boolean
sparse matrix products changes *how* candidate edges are produced, never
*which* deduplicated candidates survive the sorted merge — so every
observable output (per-iteration state, iteration counts, memory-limit
early-stop boundaries, resumed closures) must match the serial backend
bit for bit.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.matmul as matmul_mod
from repro.engine import GraspanEngine, run_superstep
from repro.engine.join import CsrView
from repro.engine.matmul import MatmulJoinBackend, scipy_available
from repro.engine.parallel import SerialJoinBackend, make_backend
from repro.frontend import pointer_graph
from repro.grammar import dyck_grammar
from repro.grammar.builtin import pointsto_grammar_extended
from repro.graph import MemGraph, from_pairs, packed
from repro.partition.storage import PartitionCorruptError
from repro.util.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.workloads import workload_by_name

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="scipy not installed"
)

#: (workload name, scale) pairs for the engine-level equivalence matrix.
WORKLOADS = [("httpd", 0.3), ("postgresql", 0.05), ("linux", 0.05)]


def adjacency_of(edges):
    by_src = {}
    for s, d, l in edges:
        by_src.setdefault(s, []).append((d, l))
    return {v: from_pairs(pairs) for v, pairs in by_src.items()}


def assert_results_identical(serial, mm):
    """Superstep results must match byte for byte, not just as sets."""
    assert serial.completed == mm.completed
    assert serial.iterations == mm.iterations
    assert serial.edges_added == mm.edges_added
    assert np.array_equal(serial.added_src, mm.added_src)
    assert np.array_equal(serial.added_keys, mm.added_keys)
    assert set(serial.adjacency) == set(mm.adjacency)
    for v, keys in serial.adjacency.items():
        assert np.array_equal(keys, mm.adjacency[v]), f"vertex {v}"


def run_both(adjacency, grammar, **kwargs):
    # The engine default is matmul itself; the oracle is named explicitly.
    with make_backend("serial", grammar, 1) as oracle:
        serial = run_superstep(dict(adjacency), grammar, backend=oracle, **kwargs)
    with make_backend("matmul", grammar, 1) as backend:
        mm = run_superstep(dict(adjacency), grammar, backend=backend, **kwargs)
    return serial, mm, backend


@pytest.fixture(scope="module")
def graphs():
    return {
        name: pointer_graph(workload_by_name(name, scale=scale).compile())
        for name, scale in WORKLOADS
    }


def closure_arrays(graph, grammar, backend, **kwargs):
    engine = GraspanEngine(grammar, parallel_backend=backend, **kwargs)
    comp = engine.run(graph)
    mem = comp.to_memgraph()
    return np.asarray(mem.src).copy(), np.asarray(mem.keys).copy(), comp.stats


@needs_scipy
class TestSuperstepEquivalence:
    """Byte-identity at the run_superstep level, grammar by grammar."""

    def test_random_graphs_all_grammars(self, reach, dyck, pointsto_ext):
        import random

        rnd = random.Random(29)
        for grammar, num_labels in ((reach, 1), (dyck, 2), (pointsto_ext, 4)):
            for trial in range(4):
                edges = list(
                    {
                        (
                            rnd.randrange(25),
                            rnd.randrange(25),
                            rnd.randrange(num_labels),
                        )
                        for _ in range(60)
                    }
                )
                serial, mm, _ = run_both(adjacency_of(edges), grammar)
                assert_results_identical(serial, mm)

    def test_memory_limit_early_stop_identical(self, reach):
        """The mid-superstep bail-out must trip at the same iteration with
        the same partial state — matmul may not change the growth order."""
        e = reach.label_id("E")
        edges = [(i, i + 1, e) for i in range(30)]
        serial, mm, _ = run_both(
            adjacency_of(edges), reach, memory_limit_edges=40
        )
        assert not serial.completed
        assert_results_identical(serial, mm)

    def test_unary_closure_only(self, reach):
        """A superstep whose only derivations are unary (E => R) yields
        no binary product nonzeros; the closure must still match."""
        e = reach.label_id("E")
        serial, mm, backend = run_both({0: from_pairs([(1, e)])}, reach)
        assert_results_identical(serial, mm)
        assert backend.telemetry.matmul_nnz == 0

    def test_empty_adjacency(self, reach):
        serial, mm, _ = run_both({}, reach)
        assert_results_identical(serial, mm)
        assert mm.iterations == 0

    def test_empty_operands_short_circuit(self, reach):
        """Empty left arrays / empty right views return EMPTY directly."""
        with make_backend("matmul", reach, 1) as backend:
            backend.begin_superstep()
            backend.begin_iteration()
            view = CsrView.from_dict({})
            src, keys = backend.join_edge_list(
                packed.EMPTY, packed.EMPTY, view, [view]
            )
            assert len(src) == 0 and len(keys) == 0

    def test_dim_guard_falls_back_to_edge_pairs(self, reach, monkeypatch):
        """Vertex ids past MAX_MATMUL_DIM take the inline edge-pair path
        per call — same closure, zero products formed."""
        monkeypatch.setattr(matmul_mod, "MAX_MATMUL_DIM", 8)
        e = reach.label_id("E")
        edges = [(i * 7, (i + 1) * 7, e) for i in range(6)]
        serial, mm, backend = run_both(adjacency_of(edges), reach)
        assert_results_identical(serial, mm)
        assert backend.telemetry.matmul_products == 0

    def test_block_reuse_across_iterations(self, reach):
        """A multi-iteration fixed point must reuse O's untouched label
        blocks via note_union instead of rebuilding every snapshot."""
        e = reach.label_id("E")
        edges = [(i, i + 1, e) for i in range(12)]
        _, _, backend = run_both(adjacency_of(edges), reach)
        t = backend.telemetry
        assert t.matmul_products > 0
        assert t.matmul_nnz > 0
        assert t.matmul_blocks_built > 0
        assert t.matmul_blocks_reused > 0


GRAMMARS = (dyck_grammar(), pointsto_grammar_extended())


def mask_blocks(src, keys, dim):
    """The original label-block build, kept as the oracle: one full-length
    mask and one ``dim``-length bincount per label.  Correct only on
    lexsorted ``(src, key)`` input."""
    labels = packed.labels_of(keys)
    targets = packed.targets_of(keys)
    blocks = {}
    for label in np.unique(labels):
        mask = labels == label
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[mask], minlength=dim), out=indptr[1:])
        blocks[int(label)] = (indptr, targets[mask])
    return blocks


def build_blocks(src, keys, dim):
    backend = MatmulJoinBackend(GRAMMARS[0])
    assert backend._ensure_dim(dim - 1)
    blocks = backend._build_blocks(src, keys)
    assert backend.telemetry.matmul_blocks_built == len(blocks)
    return blocks


def flat_edges(edges):
    """``(src, keys)`` arrays of ``(s, d, l)`` triples, in the given order."""
    src = np.asarray([s for s, _, _ in edges], dtype=np.int64)
    keys = packed.pack(
        np.asarray([d for _, d, _ in edges], dtype=np.int64),
        np.asarray([l for _, _, l in edges], dtype=np.int64),
    )
    return src, keys


def lexsorted(src, keys):
    order = np.lexsort((keys, src))
    return src[order], keys[order]


def edge_set(src, keys):
    return set(zip(src.tolist(), keys.tolist()))


@st.composite
def block_inputs(draw):
    """Distinct edges over ``[0, dim)``, lexsorted, with ``dim``.

    Labels come from a random subset of ``range(6)``, so some label ids
    are absent and sometimes a single label is present; the arrays may
    be empty, and half the cases hold an edge leaving vertex
    ``dim - 1``."""
    dim = draw(st.integers(1, 12))
    vertex = st.integers(0, dim - 1)
    labels = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    edges = draw(
        st.sets(st.tuples(vertex, vertex, st.sampled_from(labels)), max_size=40)
    )
    if draw(st.booleans()):
        edges.add((dim - 1, draw(vertex), labels[0]))
    return lexsorted(*flat_edges(sorted(edges))) + (dim,)


@needs_scipy
class TestBlockBuild:
    """The one-pass, order-independent label-block build."""

    @given(block_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_per_label_mask_build(self, inputs, data):
        src, keys, dim = inputs
        expected = mask_blocks(src, keys, dim)
        perm = np.asarray(
            data.draw(st.permutations(range(len(src)))), dtype=np.int64
        )
        in_order = build_blocks(src, keys, dim)
        shuffled = build_blocks(src[perm], keys[perm], dim)
        assert sorted(in_order) == sorted(shuffled) == sorted(expected)
        for label, (indptr, indices) in expected.items():
            # Lexsorted input: the very CSR arrays the mask build made.
            block = in_order[label]
            assert block.shape == (dim, dim)
            assert np.array_equal(block.indptr, indptr)
            assert np.array_equal(block.indices, indices)
            # Any order: the same matrix (columns may sit unsorted in a row).
            block = shuffled[label].sorted_indices()
            assert block.shape == (dim, dim)
            assert np.array_equal(block.indptr, indptr)
            assert np.array_equal(block.indices, indices)

    def test_empty_arrays(self):
        assert build_blocks(packed.EMPTY, packed.EMPTY, 4) == {}

    def test_single_label_with_max_id_row_and_column(self):
        src, keys = flat_edges([(3, 0, 2), (0, 3, 2), (3, 3, 2)])
        blocks = build_blocks(src[::-1].copy(), keys[::-1].copy(), 4)
        assert list(blocks) == [2]
        rows, cols = blocks[2].toarray().nonzero()
        assert rows.tolist() == [0, 3, 3] and cols.tolist() == [3, 0, 3]

    @given(st.sampled_from(GRAMMARS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_join_arrays_any_left_order_matches_serial(self, grammar, data):
        """join_arrays callers (``join_edges_chunked``, the full-rejoin
        ablation) may pass left edges in any order; matmul must produce
        the serial join's candidate set regardless.  The row-pointer
        bound is lifted so these tiny operands really multiply."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matmul_mod, "MAX_ROW_POINTERS_PER_EDGE", 1 << 40)
            self._join_arrays_any_left_order(grammar, data)

    @staticmethod
    def _join_arrays_any_left_order(grammar, data):
        n = data.draw(st.integers(1, 10))
        edge = st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.integers(0, grammar.num_labels - 1),
        )
        left = data.draw(st.lists(edge, min_size=1, max_size=30, unique=True))
        right = data.draw(st.lists(edge, max_size=30, unique=True))
        left_src, left_keys = flat_edges(left)
        rights = [CsrView.from_flat(*lexsorted(*flat_edges(right)))]
        with make_backend("serial", grammar, 1) as serial:
            expected = edge_set(*serial.join_arrays(left_src, left_keys, rights))
        with make_backend("matmul", grammar, 1) as mm:
            got = edge_set(*mm.join_arrays(left_src, left_keys, rights))
            if got:
                assert mm.telemetry.matmul_products > 0
        assert got == expected


def sparse_chain(grammar, n=64, stride=1 << 15):
    """``n`` E edges ``i*stride -> (i+1)*stride``: a handful of edges over
    an id space of about ``n * stride`` vertices."""
    src = np.arange(n, dtype=np.int64) * stride
    keys = packed.pack(src + stride, np.full(n, grammar.label_id("E"), np.int64))
    return src, keys


@needs_scipy
class TestRowPointerBound:
    """A join multiplies only while its label blocks' row pointers stay
    within MAX_ROW_POINTERS_PER_EDGE per operand edge."""

    def join(self, reach, max_id):
        """R(0,1) x E(1,max_id): two operand edges, dim = max_id + 1."""
        left_src, left_keys = flat_edges([(0, 1, reach.label_id("R"))])
        right = CsrView.from_flat(*flat_edges([(1, max_id, reach.label_id("E"))]))
        with make_backend("matmul", reach, 1) as backend:
            src, keys = backend.join_arrays(left_src, left_keys, [right])
        assert edge_set(src, keys) == {
            (0, int(packed.pack_one(max_id, reach.label_id("R"))))
        }
        return backend.telemetry.matmul_products

    def test_boundary(self, reach):
        # num_labels * (dim + 1) <= bound * 2 edges, exactly at the bound
        assert reach.num_labels == 2
        widest = matmul_mod.MAX_ROW_POINTERS_PER_EDGE - 2
        assert self.join(reach, widest) > 0
        assert self.join(reach, widest + 1) == 0

    def test_sparse_superstep_stays_small(self, reach):
        """Without the bound this superstep builds ~60 MB of row pointers
        for 64 edges; with it the working set follows the edges."""
        import tracemalloc

        src, keys = sparse_chain(reach)
        with make_backend(None, reach, 1) as backend:
            assert isinstance(backend, MatmulJoinBackend)
            tracemalloc.start()
            try:
                result = run_superstep(CsrView.from_flat(src, keys), reach, backend=backend)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert backend.telemetry.matmul_products == 0
        assert peak < 1 << 22
        with make_backend("serial", reach, 1) as oracle:
            expected = run_superstep(CsrView.from_flat(src, keys), reach, backend=oracle)
        assert np.array_equal(result.src, expected.src)
        assert np.array_equal(result.keys, expected.keys)

    def test_sparse_graph_under_budget_matches_serial(self, reach, tmp_path):
        """The engine default on a wide, sparse id space under a memory
        budget: every join takes the edge-pair kernel, closure identical."""
        src, keys = sparse_chain(reach, stride=1 << 14)
        graph = MemGraph.from_arrays(
            src, packed.targets_of(keys), packed.labels_of(keys),
            num_vertices=int(packed.targets_of(keys).max()) + 1,
            label_names=reach.names,
        )
        kwargs = dict(max_edges_per_partition=16, memory_budget=1 << 16)
        s_src, s_keys, _ = closure_arrays(
            graph, reach, "serial", workdir=tmp_path / "serial", **kwargs
        )
        d_src, d_keys, stats = closure_arrays(
            graph, reach, None, workdir=tmp_path / "default", **kwargs
        )
        assert np.array_equal(s_src, d_src)
        assert np.array_equal(s_keys, d_keys)
        assert all(r.backend == "matmul" for r in stats.supersteps)
        assert stats.matmul_summary()["products"] == 0


@needs_scipy
class TestEngineEquivalence:
    """Closure arrays identical to serial across the workload matrix."""

    def test_in_memory_identical(self, graphs, pointsto_ext):
        for name, graph in graphs.items():
            s_src, s_keys, _ = closure_arrays(graph, pointsto_ext, "serial")
            m_src, m_keys, stats = closure_arrays(graph, pointsto_ext, "matmul")
            assert np.array_equal(s_src, m_src), name
            assert np.array_equal(s_keys, m_keys), name
            assert all(r.backend == "matmul" for r in stats.supersteps)
            mm = stats.matmul_summary()
            assert mm["products"] > 0 and mm["blocks_built"] > 0

    def test_out_of_core_with_budget_identical(self, graphs, pointsto_ext, tmp_path):
        name, graph = "postgresql", graphs["postgresql"]
        max_edges = max(100, graph.num_edges // 2)
        kwargs = dict(
            max_edges_per_partition=max_edges,
            memory_budget=1 << 22,
        )
        s_src, s_keys, _ = closure_arrays(
            graph, pointsto_ext, "serial", workdir=tmp_path / "serial", **kwargs
        )
        m_src, m_keys, stats = closure_arrays(
            graph, pointsto_ext, "matmul", workdir=tmp_path / "matmul", **kwargs
        )
        assert np.array_equal(s_src, m_src), name
        assert np.array_equal(s_keys, m_keys), name
        assert stats.evictions >= 0  # budget path actually engaged

    def test_crash_resume_identical(self, graphs, pointsto_ext, tmp_path):
        """Crash a matmul run after a commit; the matmul resume must land
        on the serial uninterrupted closure byte for byte."""
        graph = graphs["postgresql"]
        max_edges = max(100, graph.num_edges // 2)
        s_src, s_keys, _ = closure_arrays(
            graph,
            pointsto_ext,
            "serial",
            max_edges_per_partition=max_edges,
            workdir=tmp_path / "serial",
        )
        workdir = tmp_path / "crash"
        injector = FaultInjector(FaultPlan(crash_after_commit=2))
        with pytest.raises(InjectedCrash):
            GraspanEngine(
                pointsto_ext,
                parallel_backend="matmul",
                max_edges_per_partition=max_edges,
                workdir=workdir,
                fault_injector=injector,
            ).run(graph)
        resumed = GraspanEngine(
            pointsto_ext,
            parallel_backend="matmul",
            max_edges_per_partition=max_edges,
            workdir=workdir,
        ).run(graph, resume=True)
        mem = resumed.to_memgraph()
        assert np.array_equal(s_src, np.asarray(mem.src))
        assert np.array_equal(s_keys, np.asarray(mem.keys))
        assert resumed.stats.resumed_from_superstep is not None

    def test_seeded_random_fault_is_survivable_or_detected(
        self, graphs, pointsto_ext, tmp_path
    ):
        """The CI matmul-backend job's fault variant: one seeded random
        fault (REPRO_FAULT_SEED) through the matmul data plane.  Crashes
        must be resumable, transient errnos absorbed, corruption
        detected — never a wrong closure."""
        graph = graphs["postgresql"]
        max_edges = max(100, graph.num_edges // 2)
        s_src, s_keys, _ = closure_arrays(
            graph, pointsto_ext, "serial", max_edges_per_partition=max_edges,
            workdir=tmp_path / "serial",
        )
        seed = int(os.environ.get("REPRO_FAULT_SEED", "1"))
        plan = FaultPlan.random(seed)
        workdir = tmp_path / "seeded"

        def engine(injector=None):
            return GraspanEngine(
                pointsto_ext,
                parallel_backend="matmul",
                max_edges_per_partition=max_edges,
                workdir=workdir,
                fault_injector=injector,
            )

        injector = FaultInjector(plan)
        try:
            computation = engine(injector).run(graph)
        except InjectedCrash:
            computation = engine().run(graph, resume=True)
            if injector.commits > 0:
                assert computation.stats.resumed_from_superstep is not None
        except PartitionCorruptError:
            assert plan.flip_byte_at_write is not None
            return  # detection is the guarantee for corruption faults
        mem = computation.to_memgraph()
        assert np.array_equal(s_src, np.asarray(mem.src))
        assert np.array_equal(s_keys, np.asarray(mem.keys))


class TestScipyFallback:
    def test_make_backend_degrades_to_serial(self, reach, monkeypatch, caplog):
        monkeypatch.setattr(matmul_mod, "_sparse", None)
        with caplog.at_level("WARNING"):
            backend = make_backend("matmul", reach, 1)
        assert isinstance(backend, SerialJoinBackend)
        assert backend.display_name == "serial(matmul-fallback)"
        assert any("scipy" in r.message for r in caplog.records)

    def test_constructor_requires_scipy(self, reach, monkeypatch):
        monkeypatch.setattr(matmul_mod, "_sparse", None)
        with pytest.raises(RuntimeError, match="scipy"):
            MatmulJoinBackend(reach)

    def test_fallback_engine_still_closes(self, reach, chain_graph, monkeypatch):
        monkeypatch.setattr(matmul_mod, "_sparse", None)
        comp = GraspanEngine(reach, parallel_backend="matmul").run(chain_graph)
        assert comp.num_edges > chain_graph.num_edges
        assert all(
            r.backend == "serial(matmul-fallback)"
            for r in comp.stats.supersteps
        )
