"""Tests for the pluggable join backends (serial / thread / process).

The contract: chunking and process boundaries must not change the
result — every backend produces the same closure, bit for bit, because
duplicate elimination happens downstream during the sorted merge.
"""

import numpy as np
import pytest

import repro.engine.matmul as matmul_mod
import repro.engine.parallel as parallel
from repro.engine import GraspanEngine, naive_closure
from repro.engine.matmul import MatmulJoinBackend, scipy_available
from repro.engine.parallel import (
    JoinTelemetry,
    ProcessJoinBackend,
    SerialJoinBackend,
    ThreadJoinBackend,
    make_backend,
    plan_row_chunks,
    plan_span_chunks,
    shared_memory_available,
)
from repro.frontend import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.workloads import httpd_like

#: (parallel_backend, num_threads) triples every identity test runs.
CONFIGS = [("serial", 1), ("thread", 3), ("process", 2)]


@pytest.fixture(scope="module")
def httpd_pointer():
    """The httpd-like pointer graph + grammar, compiled once."""
    workload = httpd_like(scale=0.5)
    return pointer_graph(workload.compile()), pointsto_grammar_extended()


def run_counts(graph, grammar, backend, threads, workdir=None, max_edges=None):
    engine = GraspanEngine(
        grammar,
        max_edges_per_partition=max_edges,
        workdir=workdir,
        num_threads=threads,
        parallel_backend=backend,
    )
    comp = engine.run(graph)
    return comp.count_by_label(), comp.stats


class TestBackendIdentity:
    def test_in_memory_identical(self, httpd_pointer):
        graph, grammar = httpd_pointer
        results = {}
        for backend, threads in CONFIGS:
            counts, stats = run_counts(graph, grammar, backend, threads)
            results[backend] = counts
            assert stats.supersteps[-1].backend.startswith(backend)
        assert results["serial"] == results["thread"] == results["process"]
        assert sum(results["serial"].values()) > graph.num_edges

    def test_disk_backed_identical(self, httpd_pointer, tmp_path):
        graph, grammar = httpd_pointer
        max_edges = max(1000, graph.num_edges // 4)
        results = {}
        for backend, threads in CONFIGS:
            counts, _ = run_counts(
                graph,
                grammar,
                backend,
                threads,
                workdir=tmp_path / backend,
                max_edges=max_edges,
            )
            results[backend] = counts
        assert results["serial"] == results["thread"] == results["process"]

    def test_process_fallback_when_no_shared_memory(
        self, httpd_pointer, monkeypatch
    ):
        """No shared memory -> thread substitution, identical result."""
        graph, grammar = httpd_pointer
        serial, _ = run_counts(graph, grammar, "serial", 1)
        monkeypatch.setattr(parallel, "shared_memory_available", lambda: False)
        counts, stats = run_counts(graph, grammar, "process", 2)
        assert counts == serial
        assert all("fallback" in r.backend for r in stats.supersteps)

    def test_telemetry_recorded(self, httpd_pointer):
        graph, grammar = httpd_pointer
        _, stats = run_counts(graph, grammar, "thread", 3)
        par = stats.parallelism_summary()
        assert par["backend"] == "thread"
        assert par["chunks"] > 0
        assert par["worst_chunk_balance"] >= 1.0
        assert par["pool_s"] > 0.0
        assert stats.summary()["backend"] == "thread"


class TestProcessBackend:
    @pytest.mark.skipif(
        not shared_memory_available(), reason="no POSIX shared memory"
    )
    def test_pool_released_on_engine_error(self, reach, chain_graph):
        """The context manager shuts the pool down even when run() raises."""
        engine = GraspanEngine(
            reach,
            parallel_backend="process",
            num_threads=2,
            max_supersteps=1,
            max_edges_per_partition=3,
        )
        with pytest.raises(RuntimeError, match="max_supersteps"):
            engine.run(chain_graph)
        # a fresh run on the same engine object still works
        engine.max_supersteps = 1_000_000
        comp = engine.run(chain_graph)
        assert comp.num_edges > chain_graph.num_edges

    @pytest.mark.skipif(
        not shared_memory_available(), reason="no POSIX shared memory"
    )
    def test_degrades_inline_on_publish_failure(self, reach, monkeypatch):
        """A mid-run shm failure degrades to inline joins, not a crash."""
        e = reach.label_id("E")
        edges = [(i, i + 1, e) for i in range(300)]
        adjacency = {}
        for s, d, l in edges:
            adjacency.setdefault(s, []).append((d, l))
        from repro.graph import from_pairs, packed

        adjacency = {v: from_pairs(p) for v, p in adjacency.items()}
        backend = ProcessJoinBackend(reach, num_workers=2)

        def boom(arrays):
            raise OSError("no shm")

        monkeypatch.setattr(backend, "_publish_arrays", boom)
        with backend:
            from repro.engine.superstep import run_superstep

            result = run_superstep(adjacency, reach, backend=backend)
        assert backend._degraded
        assert backend.telemetry.backend == "process(degraded)"
        out = {
            (int(v), int(k))
            for v, keys in result.adjacency.items()
            for k in keys
        }
        expected = {
            (s, (d << packed.LABEL_BITS) | l)
            for s, d, l in naive_closure(edges, reach)
        }
        assert out == expected


class TestChunkPlanners:
    def test_row_chunks_cover_all_rows(self):
        indptr = np.asarray([0, 5, 6, 7, 20, 21], dtype=np.int64)
        chunks = plan_row_chunks(indptr, 3)
        assert chunks[0][0] == 0 and chunks[-1][1] == 5
        for (_, a_hi), (b_lo, _) in zip(chunks, chunks[1:]):
            assert a_hi == b_lo

    def test_row_chunks_edge_balanced(self):
        # 100 rows, one edge each: 4 chunks of 25 rows
        indptr = np.arange(101, dtype=np.int64)
        chunks = plan_row_chunks(indptr, 4)
        assert chunks == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_row_chunks_empty(self):
        assert plan_row_chunks(np.zeros(1, dtype=np.int64), 4) == []
        assert plan_row_chunks(np.asarray([0, 0, 0], dtype=np.int64), 4) == []

    def test_span_chunks_partition_the_range(self):
        chunks = plan_span_chunks(10, 3)
        assert chunks[0][0] == 0 and chunks[-1][1] == 10
        assert sum(hi - lo for lo, hi in chunks) == 10

    def test_span_chunks_empty_and_tiny(self):
        assert plan_span_chunks(0, 4) == []
        assert plan_span_chunks(2, 8) == [(0, 1), (1, 2)]


class TestTelemetry:
    def test_balance_of_even_chunks(self):
        t = JoinTelemetry()
        t.record_chunks([10, 10, 10])
        assert t.chunk_balance == 1.0

    def test_balance_of_skewed_chunks(self):
        t = JoinTelemetry()
        t.record_chunks([10, 30])
        assert t.chunk_balance == pytest.approx(1.5)

    def test_balance_without_chunks(self):
        assert JoinTelemetry().chunk_balance == 1.0

    def test_speedup_estimate(self):
        t = JoinTelemetry(pool_seconds=2.0, serial_estimate_seconds=6.0)
        assert t.speedup_estimate == pytest.approx(3.0)
        assert JoinTelemetry().speedup_estimate == 1.0


class TestMakeBackend:
    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    def test_auto_selects_matmul_with_scipy(self, reach):
        for workers in (1, 4):
            with make_backend(None, reach, workers) as backend:
                assert isinstance(backend, MatmulJoinBackend)
                assert backend.display_name == "matmul"

    def test_auto_selects_serial_then_thread(self, reach, monkeypatch, caplog):
        """Without scipy the default is the edge-pair join, quietly."""
        monkeypatch.setattr(matmul_mod, "_sparse", None)
        with caplog.at_level("WARNING"):
            serial = make_backend(None, reach, 1)
            with make_backend(None, reach, 4) as thread:
                assert isinstance(thread, ThreadJoinBackend)
        assert isinstance(serial, SerialJoinBackend)
        assert serial.display_name == "serial"
        assert not caplog.records

    def test_explicit_matmul_without_scipy_warns(
        self, reach, chain_graph, monkeypatch, caplog
    ):
        """A named matmul request that cannot be honoured is loud, and the
        serial fallback's closure is byte-identical to the default's."""
        expected = GraspanEngine(reach).run(chain_graph).to_memgraph()
        monkeypatch.setattr(matmul_mod, "_sparse", None)
        with caplog.at_level("WARNING"):
            comp = GraspanEngine(reach, parallel_backend="matmul").run(chain_graph)
        assert any("scipy" in r.message for r in caplog.records)
        assert all(
            r.backend == "serial(matmul-fallback)" for r in comp.stats.supersteps
        )
        closure = comp.to_memgraph()
        assert np.array_equal(np.asarray(expected.src), np.asarray(closure.src))
        assert np.array_equal(np.asarray(expected.keys), np.asarray(closure.keys))

    def test_unknown_name_rejected(self, reach):
        with pytest.raises(ValueError, match="unknown parallel backend"):
            make_backend("gpu", reach, 2)

    def test_engine_rejects_unknown_backend(self, reach):
        with pytest.raises(ValueError, match="unknown parallel_backend"):
            GraspanEngine(reach, parallel_backend="gpu")

    def test_process_fallback_labeled(self, reach, monkeypatch):
        monkeypatch.setattr(parallel, "shared_memory_available", lambda: False)
        backend = make_backend("process", reach, 2)
        assert isinstance(backend, ThreadJoinBackend)
        assert backend.display_name == "thread(process-fallback)"

    def test_backends_are_context_managers(self, reach):
        for name in ("serial", "thread"):
            with make_backend(name, reach, 2) as backend:
                assert backend.telemetry is not None
