"""Distributed supersteps end-to-end: byte-identity and fault matrix.

The contract under test (DESIGN.md §16): a closure driven by the
coordinator/worker lease protocol is **byte-identical** to the serial
schedule's — same canonical ``(src, keys)`` arrays out of
``to_memgraph()`` — for any worker count, under a memory budget, and
across a crash/resume; killing a worker mid-lease loses no edges and
applies no delta twice, with the idempotency counters proving it.
"""

import numpy as np
import pytest

from repro.engine.engine import GraspanEngine
from repro.engine.scheduler import PairScheduler
from repro.frontend.graphs import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.util.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.workloads.programs import workload_by_name

WORKLOADS = {
    "postgresql": 0.05,
    "linux": 0.12,
    "httpd": 0.1,
}


@pytest.fixture(scope="module")
def grammar():
    return pointsto_grammar_extended()


@pytest.fixture(scope="module")
def baselines(grammar, tmp_path_factory):
    """Serial closure + schedule per workload, computed once."""
    out = {}
    for name, scale in WORKLOADS.items():
        graph = pointer_graph(workload_by_name(name, scale=scale).compile())
        workdir = tmp_path_factory.mktemp(f"serial-{name}")
        max_edges = max(100, graph.num_edges // 2)
        computation = GraspanEngine(
            grammar, max_edges_per_partition=max_edges, workdir=workdir
        ).run(graph)
        closure = computation.to_memgraph()
        out[name] = {
            "graph": graph,
            "max_edges": max_edges,
            "src": np.asarray(closure.src).copy(),
            "keys": np.asarray(closure.keys).copy(),
        }
    return out


def schedule_of(stats):
    return [(r.pair, r.edges_added, r.completed) for r in stats.supersteps]


def run_distributed_engine(base, grammar, workdir, workers, **engine_kwargs):
    distributed = engine_kwargs.pop("distributed", {})
    distributed.setdefault("workers", workers)
    engine = GraspanEngine(
        grammar,
        max_edges_per_partition=base["max_edges"],
        workdir=workdir,
        parallel_backend="distributed",
        distributed=distributed,
        **engine_kwargs,
    )
    with engine.session(base["graph"]) as session:
        session.run()
        closure = session.pset.to_memgraph()
        return (
            np.asarray(closure.src).copy(),
            np.asarray(closure.keys).copy(),
            session.stats,
        )


def assert_identical(base, src, keys):
    assert np.array_equal(base["src"], src)
    assert np.array_equal(base["keys"], keys)


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_two_workers_identical(self, name, baselines, grammar, tmp_path):
        base = baselines[name]
        src, keys, stats = run_distributed_engine(base, grammar, tmp_path, 2)
        assert_identical(base, src, keys)
        summary = stats.distributed_summary()
        assert summary["workers"] == 2
        assert summary["leases_completed"] == len(stats.supersteps)
        assert summary["duplicate_deltas_suppressed"] == 0

    def test_single_worker_is_the_serial_schedule(
        self, baselines, grammar, tmp_path
    ):
        """One worker, sequential pulls: not just the same closure — the
        exact serial superstep sequence (pair, delta size, completion).

        Leases are pairs, so the serial reference is the engine run with
        the paper's pair-at-a-time ``PairScheduler``, not the default
        budget-wide sets."""
        base = baselines["postgresql"]
        serial = GraspanEngine(
            grammar,
            max_edges_per_partition=base["max_edges"],
            workdir=tmp_path / "serial",
            scheduler=PairScheduler(),
        ).run(base["graph"])
        src, keys, stats = run_distributed_engine(
            base, grammar, tmp_path / "distributed", 1
        )
        assert_identical(base, src, keys)
        assert schedule_of(stats) == schedule_of(serial.stats)

    def test_four_workers_identical(self, baselines, grammar, tmp_path):
        base = baselines["httpd"]
        src, keys, stats = run_distributed_engine(base, grammar, tmp_path, 4)
        assert_identical(base, src, keys)
        assert stats.distributed_summary()["workers"] == 4

    def test_identical_under_memory_budget(self, baselines, grammar, tmp_path):
        base = baselines["linux"]
        src, keys, stats = run_distributed_engine(
            base, grammar, tmp_path, 2, memory_budget=1 << 20
        )
        assert_identical(base, src, keys)

    def test_crash_then_resume_identical(self, baselines, grammar, tmp_path):
        base = baselines["postgresql"]
        plan = FaultPlan(crash_after_commit=4)
        engine = GraspanEngine(
            grammar,
            max_edges_per_partition=base["max_edges"],
            workdir=tmp_path,
            parallel_backend="distributed",
            checkpoint=True,
            distributed={"workers": 2},
            fault_injector=FaultInjector(plan),
        )
        with pytest.raises(InjectedCrash):
            engine.run(base["graph"])
        resumed = GraspanEngine(
            grammar,
            max_edges_per_partition=base["max_edges"],
            workdir=tmp_path,
            parallel_backend="distributed",
            checkpoint=True,
            distributed={"workers": 2},
        )
        closure = resumed.run(base["graph"], resume=True).to_memgraph()
        assert_identical(
            base, np.asarray(closure.src), np.asarray(closure.keys)
        )


class TestWorkerDeath:
    def test_kill_mid_lease_loses_nothing_applies_nothing_twice(
        self, baselines, grammar, tmp_path
    ):
        """A worker killed at its 3rd lease dispatch: the coordinator
        reissues the lost lease, the survivor finishes the closure, the
        counters prove at-most-once application."""
        base = baselines["postgresql"]
        plan = FaultPlan(kill_worker_at_dispatch=3)
        src, keys, stats = run_distributed_engine(
            base,
            grammar,
            tmp_path,
            2,
            fault_injector=FaultInjector(plan),
        )
        assert_identical(base, src, keys)
        summary = stats.distributed_summary()
        assert summary["worker_deaths"] >= 1
        assert summary["leases_reissued"] >= 1
        # At-most-once: every superstep came from exactly one applied
        # lease, nothing was merged twice, nothing stale got in.
        assert summary["leases_completed"] == len(stats.supersteps)
        assert summary["duplicate_deltas_suppressed"] == 0
        assert summary["stale_deltas_rejected"] == 0
        assert (
            summary["leases_issued"]
            == summary["leases_completed"] + summary["leases_reissued"]
        )

    def test_all_workers_die_coordinator_respawns(
        self, baselines, grammar, tmp_path
    ):
        """Sole worker dies mid-run: run_distributed spawns a replacement
        generation and still reaches the identical fixed point."""
        base = baselines["postgresql"]
        plan = FaultPlan(kill_worker_at_dispatch=2)
        src, keys, stats = run_distributed_engine(
            base,
            grammar,
            tmp_path,
            1,
            fault_injector=FaultInjector(plan),
        )
        assert_identical(base, src, keys)
        assert stats.distributed_summary()["worker_deaths"] == 1


class TestWorkerCache:
    def test_worker_memory_budget_respected(self, baselines, grammar, tmp_path):
        base = baselines["postgresql"]
        src, keys, _ = run_distributed_engine(
            base,
            grammar,
            tmp_path,
            2,
            distributed={"worker_memory_budget": 1 << 16},
        )
        assert_identical(base, src, keys)
