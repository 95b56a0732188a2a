"""Pipelined supersteps (DESIGN.md §10): equivalence, crash safety, telemetry.

The contract under test: turning the I/O pipeline on changes *when* disk
work happens, never *what* is computed or what survives a crash.  The
equivalence matrix runs the same workload with the pipeline off and on,
with and without a memory budget, and across an injected crash during an
in-flight async flush — every variant must produce the byte-identical
closure.  The misprediction test forces the scheduler's lookahead wrong
and checks that speculative loads are cancelled/evicted and accounted.
"""

import numpy as np
import pytest

from repro.engine.engine import GraspanEngine
from repro.engine.pipeline import IoPipeline
from repro.engine.scheduler import Scheduler
from repro.frontend.graphs import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.util.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.workloads.programs import workload_by_name


@pytest.fixture(scope="module")
def graph():
    workload = workload_by_name("postgresql", scale=0.05)
    return pointer_graph(workload.compile())


@pytest.fixture(scope="module")
def grammar():
    return pointsto_grammar_extended()


@pytest.fixture(scope="module")
def max_edges(graph):
    # Small partitions -> tens of supersteps -> real prefetch traffic.
    return max(100, graph.num_edges // 2)


def run_closure(graph, grammar, max_edges, workdir, **kwargs):
    resume = kwargs.pop("resume", False)
    engine = GraspanEngine(
        grammar,
        max_edges_per_partition=max_edges,
        workdir=workdir,
        **kwargs,
    )
    return engine.run(graph, resume=resume)


@pytest.fixture(scope="module")
def sequential(graph, grammar, max_edges, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("sequential")
    computation = run_closure(
        graph, grammar, max_edges, workdir, pipeline=False
    )
    closure = computation.to_memgraph()
    return {
        "src": np.asarray(closure.src).copy(),
        "keys": np.asarray(closure.keys).copy(),
        "supersteps": computation.stats.num_supersteps,
        "checkpoints": computation.stats.checkpoints_written,
        "max_partition_bytes": computation.stats.max_partition_bytes,
    }


def assert_same_closure(reference, computation):
    closure = computation.to_memgraph()
    assert np.array_equal(reference["src"], np.asarray(closure.src))
    assert np.array_equal(reference["keys"], np.asarray(closure.keys))


class TestEquivalenceMatrix:
    def test_pipeline_defaults_on_with_workdir(
        self, graph, grammar, max_edges, tmp_path
    ):
        computation = run_closure(graph, grammar, max_edges, tmp_path)
        assert computation.stats.pipeline_enabled

    def test_pipeline_off_without_workdir(self, graph, grammar):
        computation = GraspanEngine(grammar).run(graph)
        assert not computation.stats.pipeline_enabled

    def test_pipeline_requires_workdir(self, grammar):
        with pytest.raises(ValueError, match="pipeline requires a workdir"):
            GraspanEngine(grammar, pipeline=True)

    def test_pipelined_closure_is_byte_identical(
        self, graph, grammar, max_edges, sequential, tmp_path
    ):
        computation = run_closure(
            graph, grammar, max_edges, tmp_path, pipeline=True
        )
        assert_same_closure(sequential, computation)
        stats = computation.stats
        assert stats.pipeline_enabled
        assert stats.checkpoints_written == stats.num_supersteps + 1
        # The pipeline must see the same schedule as the sequential run:
        # speculative residency is hidden from the scheduler tie-break.
        assert stats.num_supersteps == sequential["supersteps"]

    def test_pipelined_closure_identical_under_memory_budget(
        self, graph, grammar, max_edges, sequential, tmp_path
    ):
        budgets = {}
        for mode, pipeline in (("off", False), ("on", True)):
            computation = run_closure(
                graph,
                grammar,
                max_edges,
                tmp_path / mode,
                pipeline=pipeline,
                memory_budget=1 << 20,
            )
            assert_same_closure(sequential, computation)
            budgets[mode] = computation.stats
        on = budgets["on"]
        # Speculative loads are charged against the budget up front, so
        # the budgeted overshoot bound survives the pipeline.
        assert (
            on.peak_resident_bytes
            <= (1 << 20) + on.max_partition_bytes
        )

    def test_per_superstep_records_carry_pipeline_deltas(
        self, graph, grammar, max_edges, tmp_path
    ):
        computation = run_closure(
            graph, grammar, max_edges, tmp_path, pipeline=True
        )
        records = computation.stats.supersteps
        assert sum(r.prefetch_issued for r in records) == (
            computation.stats.prefetch_issued
        )
        assert all(
            r.prefetch_hits + r.prefetch_wasted <= r.prefetch_issued + 2
            for r in records
        )


class TestCrashDuringAsyncFlush:
    def test_crash_mid_flush_resumes_byte_identical(
        self, graph, grammar, max_edges, sequential, tmp_path
    ):
        """Crash inside an in-flight background write, then resume.

        The async flush runs on the I/O thread; the InjectedCrash is
        captured by its future and must re-raise at the commit drain —
        before the manifest could replace its predecessor.  The torn
        ``*.tmp`` is scrubbed on resume and the closure is unchanged.
        """
        crashed = 0
        for write_index in (6, 11):
            workdir = tmp_path / f"flush-crash-{write_index}"
            injector = FaultInjector(FaultPlan(crash_at_write=write_index))
            with pytest.raises(InjectedCrash):
                run_closure(
                    graph,
                    grammar,
                    max_edges,
                    workdir,
                    pipeline=True,
                    fault_injector=injector,
                )
            crashed += 1
            assert list(workdir.glob("*.tmp")), "torn tmp file expected"
            resumed = run_closure(
                graph, grammar, max_edges, workdir, pipeline=True, resume=True
            )
            assert_same_closure(sequential, resumed)
            assert resumed.stats.resumed_from_superstep is not None
        assert crashed == 2

    def test_crash_after_commit_watermark_matches_sequential(
        self, graph, grammar, max_edges, sequential, tmp_path
    ):
        """The lagged commit preserves the occurrence→watermark mapping.

        Commit #N (1-indexed) checkpoints superstep N-1 whether the
        flush ran synchronously or a superstep behind.
        """
        commit = 4
        workdir = tmp_path / "post-commit-crash"
        injector = FaultInjector(FaultPlan(crash_after_commit=commit))
        with pytest.raises(InjectedCrash):
            run_closure(
                graph,
                grammar,
                max_edges,
                workdir,
                pipeline=True,
                fault_injector=injector,
            )
        resumed = run_closure(
            graph, grammar, max_edges, workdir, pipeline=True, resume=True
        )
        assert_same_closure(sequential, resumed)
        assert resumed.stats.resumed_from_superstep == commit - 1
        assert (
            resumed.stats.num_supersteps
            <= sequential["supersteps"] - (commit - 1)
        )


class _WrongPeekScheduler(Scheduler):
    """Scheduler whose lookahead deliberately predicts a wrong pair.

    ``peek_pair`` returns the *last* dirty pair instead of the first-best
    one, so almost every prefetch is a misprediction the engine must
    cancel or evict.
    """

    def peek_pair(self, ddm, resident_pids, assume_synced=None):
        ps, qs, _ = ddm.pair_scores(assume_synced=assume_synced)
        if len(ps) == 0:
            return None
        return int(ps[-1]), int(qs[-1])


class TestMisprediction:
    def test_mispredicted_prefetches_are_evicted_and_accounted(
        self, graph, grammar, max_edges, sequential, tmp_path
    ):
        # Unbudgeted, every dirty partition is already loaded and there
        # is nothing left to prefetch.  The largest partition the run
        # ever held (just before a split) is about two of its final
        # partitions: as a budget it keeps supersteps narrow and memory
        # tight, so speculative loads are actually issued and evicted.
        computation = run_closure(
            graph,
            grammar,
            max_edges,
            tmp_path,
            pipeline=True,
            scheduler=_WrongPeekScheduler(),
            memory_budget=sequential["max_partition_bytes"],
        )
        # Wrong guesses never hurt correctness...
        assert_same_closure(sequential, computation)
        stats = computation.stats
        # ...but they are all settled: every speculative load was either
        # consumed or reconciled away, and the wasted ones were counted.
        assert stats.prefetch_issued > 0
        assert stats.prefetch_wasted > 0
        assert (
            stats.prefetch_hits + stats.prefetch_wasted
            <= stats.prefetch_issued
        )
        # Mispredicted residents are evicted rather than left squatting.
        assert stats.evictions > 0


class TestIoPipelineUnit:
    def test_overlap_accounting(self):
        with IoPipeline() as io:
            future = io.submit(sum, (1, 2, 3))
            assert io.wait_load(future) == 6
            assert io.busy_seconds > 0.0
            assert io.load_wait_seconds >= 0.0
            assert 0.0 <= io.overlap_fraction <= 1.0

    def test_submit_after_close_raises(self):
        io = IoPipeline()
        io.close()
        with pytest.raises(RuntimeError, match="closed"):
            io.submit(sum, (1, 2))

    def test_snapshot_keys_are_stable(self):
        with IoPipeline() as io:
            snap = io.snapshot()
        assert set(snap) == {
            "busy_seconds",
            "load_wait_seconds",
            "flush_wait_seconds",
            "prefetch_issued",
            "prefetch_hits",
            "prefetch_wasted",
        }
