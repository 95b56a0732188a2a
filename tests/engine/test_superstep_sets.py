"""Budget-wide supersteps (DESIGN.md §18): set selection and exactness.

The contract under test: a superstep loads a *set* of partitions — the
best DDM pair plus whatever further dirty partitions fit the memory
budget with one partition of headroom — and that changes how many
supersteps a closure takes, never what it computes.  Closures are
byte-identical across budgets and join backends, residency stays within
``budget + one partition``, the edges each superstep reports adding sum
to the closure's growth, and a crash after any commit resumes into the
same set sequence as the uninterrupted run.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import parallel, run_superstep, superstep
from repro.engine.engine import GraspanEngine
from repro.engine.join import CsrView
from repro.engine.parallel import make_backend
from repro.engine.scheduler import PairScheduler, Scheduler, pair_members
from repro.frontend.graphs import pointer_graph
from repro.grammar.builtin import pointsto_grammar_extended
from repro.grammar import dyck_grammar
from repro.graph import from_pairs
from repro.partition import DestinationDistributionMap
from repro.partition.storage import PartitionCorruptError
from repro.util.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.workloads.programs import workload_by_name

# ---------------------------------------------------------------------------
# choose_set properties
# ---------------------------------------------------------------------------


@st.composite
def scheduling_states(draw):
    """A DDM with some sync history, partition sizes, residency, budget."""
    n = draw(st.integers(1, 8))
    counts = np.asarray(
        draw(
            st.lists(
                st.lists(st.integers(0, 6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    ddm = DestinationDistributionMap(counts)
    for _ in range(draw(st.integers(0, 4))):
        synced = draw(st.lists(st.integers(0, n - 1), max_size=n))
        ddm.mark_synced(synced)
        ddm.record_new_edges(
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, 3)),
        )
    sizes = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    resident = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    budget = draw(st.one_of(st.none(), st.integers(1, 6000)))
    return ddm, sizes, resident, budget


def ddm_state(ddm):
    return [
        ddm.counts.copy(),
        ddm.added_since_sync.copy(),
        ddm.version.copy(),
        ddm.synced_version.copy(),
    ]


class TestChooseSet:
    @given(scheduling_states())
    @settings(max_examples=150, deadline=None)
    def test_seed_pair_always_included(self, state):
        ddm, sizes, resident, budget = state
        scheduler = Scheduler()
        chosen = scheduler.choose_set(ddm, resident, sizes, budget)
        pair = scheduler.choose_pair(ddm, resident)
        if pair is None:
            assert chosen is None
            return
        assert set(pair_members(pair)) <= set(chosen)
        assert list(chosen) == sorted(set(chosen))

    @given(scheduling_states())
    @settings(max_examples=150, deadline=None)
    def test_set_bytes_plus_headroom_within_budget(self, state):
        ddm, sizes, resident, budget = state
        scheduler = Scheduler()
        chosen = scheduler.choose_set(ddm, resident, sizes, budget)
        if chosen is None:
            return
        seed = pair_members(scheduler.choose_pair(ddm, resident))
        dirty = {p for pair in ddm.dirty_pairs() for p in pair}
        assert set(chosen) <= dirty
        if budget is None:
            # No budget: every partition with pending work joins.
            assert set(chosen) == dirty
        elif tuple(chosen) != seed:
            # Anything beyond the (always admitted) seed had to fit.
            assert sum(sizes[p] for p in chosen) + max(sizes) <= budget

    @given(scheduling_states())
    @settings(max_examples=150, deadline=None)
    def test_pair_scheduler_is_todays_pair_schedule(self, state):
        ddm, sizes, resident, budget = state
        pair = Scheduler().choose_pair(ddm, resident)
        chosen = PairScheduler().choose_set(ddm, resident, sizes, budget)
        assert chosen == (None if pair is None else pair_members(pair))

    @given(scheduling_states())
    @settings(max_examples=100, deadline=None)
    def test_deterministic_and_read_only(self, state):
        ddm, sizes, resident, budget = state
        before = ddm_state(ddm)
        first = Scheduler().choose_set(ddm, resident, sizes, budget)
        second = Scheduler().choose_set(ddm, list(reversed(resident)), sizes, budget)
        assert first == second
        for a, b in zip(before, ddm_state(ddm)):
            assert np.array_equal(a, b)

    def test_budget_admits_whole_pairs_in_score_order(self):
        counts = np.zeros((5, 5), dtype=np.int64)
        counts[0, 1] = 9  # seed
        counts[2, 3] = 5  # next best: fits only as a whole pair
        counts[3, 4] = 1
        ddm = DestinationDistributionMap(counts)
        sizes = [10, 10, 10, 10, 10]
        scheduler = Scheduler(slack=0.0)
        # 2 seed members + headroom = 30; room for one more pair (20).
        assert scheduler.choose_set(ddm, [], sizes, 50) == (0, 1, 2, 3)
        # Room for one partition only: (2, 3) does not fit whole, and
        # (3, 4) would need both too — the seed pair runs alone.
        assert scheduler.choose_set(ddm, [], sizes, 40) == (0, 1)
        assert scheduler.choose_set(ddm, [], sizes, None) == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# the batched join inside one superstep
# ---------------------------------------------------------------------------

DYCK = dyck_grammar()


@st.composite
def adjacencies(draw):
    n = draw(st.integers(2, 12))
    by_src = {}
    for _ in range(draw(st.integers(1, 30))):
        s, d = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        by_src.setdefault(s, []).append((d, draw(st.integers(0, 1))))
    return {v: from_pairs(pairs) for v, pairs in by_src.items()}


def edge_set(src, keys):
    return set(zip(np.asarray(src).tolist(), np.asarray(keys).tolist()))


def serial_superstep(adjacency, grammar, **kwargs):
    """``run_superstep`` on the edge-pair join — the oracle, and the
    backend whose joins a gather cap cuts into batches (the default,
    matmul when scipy is installed, runs them whole)."""
    with make_backend("serial", grammar, 1) as serial:
        return run_superstep(adjacency, grammar, backend=serial, **kwargs)


class TestGatherCap:
    @given(adjacencies(), st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_batched_join_is_byte_identical(self, adjacency, cap):
        whole = serial_superstep(dict(adjacency), DYCK)
        batched = serial_superstep(dict(adjacency), DYCK, gather_cap=cap)
        assert batched.completed
        assert np.array_equal(whole.src, batched.src)
        assert np.array_equal(whole.keys, batched.keys)
        assert edge_set(whole.added_src, whole.added_keys) == edge_set(
            batched.added_src, batched.added_keys
        )

    @given(adjacencies(), st.integers(1, 40), st.integers(1, 60))
    @settings(max_examples=80, deadline=None)
    def test_early_stop_mid_iteration_is_sound(self, adjacency, cap, limit):
        """A batch-granular early stop returns a subset of the closure,
        flagged incomplete — never a partial set claiming completion."""
        whole = serial_superstep(dict(adjacency), DYCK)
        part = serial_superstep(
            dict(adjacency), DYCK, memory_limit_edges=limit, gather_cap=cap
        )
        got = edge_set(part.src, part.keys)
        assert got <= edge_set(whole.src, whole.keys)
        if part.completed:
            assert got == edge_set(whole.src, whole.keys)
        assert len(part.added_src) == len(part.src) - sum(
            len(keys) for keys in adjacency.values()
        )


# ---------------------------------------------------------------------------
# whole closures across budgets and backends
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grammar():
    return pointsto_grammar_extended()


@pytest.fixture(scope="module")
def graph():
    return pointer_graph(workload_by_name("postgresql", scale=0.05).compile())


@pytest.fixture(scope="module")
def max_edges(graph):
    return max(100, graph.num_edges // 2)


def records_of(stats):
    """The superstep sequence: which set ran, what it added, did it finish."""
    return [(r.pair, r.edges_added, r.completed) for r in stats.supersteps]


@pytest.fixture(scope="module")
def reference(graph, grammar, max_edges, tmp_path_factory):
    """The unbudgeted serial closure plus the byte sizes the budgets
    derive from."""
    computation = GraspanEngine(
        grammar,
        parallel_backend="serial",
        max_edges_per_partition=max_edges,
        workdir=tmp_path_factory.mktemp("reference"),
    ).run(graph)
    closure = computation.to_memgraph()
    return {
        "src": np.asarray(closure.src).copy(),
        "keys": np.asarray(closure.keys).copy(),
        "records": records_of(computation.stats),
        "max_partition_bytes": computation.stats.max_partition_bytes,
        "total_bytes": computation.pset.total_bytes(),
    }


BUDGETS = ("none", "fits-two", "quarter", "everything")


def budget_bytes(name, reference):
    return {
        "none": None,
        # The largest partition the run held — about two of its final ones.
        "fits-two": reference["max_partition_bytes"],
        "quarter": reference["total_bytes"] // 4,
        "everything": 4 * reference["total_bytes"],
    }[name]


def assert_same_closure(reference, computation):
    closure = computation.to_memgraph()
    assert np.array_equal(reference["src"], np.asarray(closure.src))
    assert np.array_equal(reference["keys"], np.asarray(closure.keys))


def graph_view(graph):
    return CsrView.from_flat(np.asarray(graph.src), np.asarray(graph.keys))


class TestBatchViews:
    """A left batch is a short-lived view built for one join.  A backend
    that cached per-view state for it by ``id()`` would serve a later
    batch, allocated at a freed batch's address, the earlier batch's
    edges — silently dropping candidates while still reaching a
    "fixed point"."""

    def test_process_backend_batches_match_serial(self, graph, grammar):
        whole = serial_superstep(graph_view(graph), grammar)
        # One persistent backend over many supersteps, as in the engine:
        # thousands of batch views come and go, so freed addresses recur.
        with make_backend("process", grammar, 2) as backend:
            for cap in (250, 500, 750, 1000, 1500, 2000):
                batched = run_superstep(
                    graph_view(graph), grammar, backend=backend, gather_cap=cap
                )
                # A stale view with another batch's row count fails in the
                # workers and degrades the backend; one with the same
                # shape silently joins the wrong edges.
                assert not backend._degraded, cap
                assert batched.completed
                assert np.array_equal(whole.src, batched.src), cap
                assert np.array_equal(whole.keys, batched.keys), cap
            assert backend._pool is not None  # batches reached the workers

    def test_only_snapshots_stay_published(self, graph, grammar, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_PARALLEL_EDGES", 1)
        view = graph_view(graph)
        rows = len(view.vertices) // 2
        batch = CsrView(
            view.vertices[:rows],
            view.indptr[: rows + 1],
            view.keys[: view.indptr[rows]],
        )
        with make_backend("serial", grammar, 1) as serial:
            expected = edge_set(*serial.join_views(batch, [view]))
        with make_backend("process", grammar, 2) as backend:
            backend.begin_superstep()
            backend.begin_iteration((view,))
            assert edge_set(*backend.join_views(batch, [view])) == expected
            assert list(backend._published) == [id(view)]
            backend.end_superstep()
            assert backend._published == {}

    def test_matmul_joins_stay_whole(self, graph, grammar, monkeypatch):
        """Matmul products collapse duplicates instead of gathering every
        continuation, so a gather cap never cuts their left side."""
        pytest.importorskip("scipy")
        caps = []
        left_batches = superstep._left_batches

        def spy(*args):
            caps.append(args[-1])
            return left_batches(*args)

        monkeypatch.setattr(superstep, "_left_batches", spy)
        whole = serial_superstep(graph_view(graph), grammar)
        with make_backend("matmul", grammar, 1) as backend:
            capped = run_superstep(
                graph_view(graph), grammar, backend=backend, gather_cap=500
            )
        assert set(caps) == {0}
        assert np.array_equal(whole.src, capped.src)
        assert np.array_equal(whole.keys, capped.keys)


class TestClosureAcrossBudgets:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "matmul"])
    @pytest.mark.parametrize("budget_name", BUDGETS)
    def test_byte_identical_within_residency_bound(
        self, graph, grammar, max_edges, reference, tmp_path, backend, budget_name
    ):
        budget = budget_bytes(budget_name, reference)
        computation = GraspanEngine(
            grammar,
            max_edges_per_partition=max_edges,
            workdir=tmp_path,
            memory_budget=budget,
            parallel_backend=backend,
            num_threads=2,
        ).run(graph)
        assert_same_closure(reference, computation)
        stats = computation.stats
        assert stats.total_edges_added == stats.final_edges - stats.original_edges
        if budget is not None:
            assert stats.peak_resident_bytes <= budget + stats.max_partition_bytes
        if budget is None:
            # Backends differ in how they join, never in what a superstep
            # loads or adds.
            assert records_of(stats) == reference["records"]
        if budget_name == "fits-two":
            # A tight budget narrows the sets and cycles partitions.
            assert stats.evictions > 0
            assert max(len(r.pair) for r in stats.supersteps) < stats.final_partitions

    @pytest.mark.parametrize(
        "budget_name, backend",
        [("fits-two", "serial"), ("quarter", "serial"), ("fits-two", "process")],
    )
    def test_batched_joins_in_the_engine(
        self, graph, grammar, max_edges, reference, tmp_path, monkeypatch,
        budget_name, backend,
    ):
        """Budgets this small cut every join into many batches, and the
        mid-iteration early stop fires inside real closures.  The process
        backend dispatches even these small batches to its workers, so
        every batch goes through shared memory."""
        monkeypatch.setattr(parallel, "MIN_PARALLEL_EDGES", 1)
        batches_per_join = []
        left_batches = superstep._left_batches

        def counted(*args):
            batches = list(left_batches(*args))
            batches_per_join.append(len(batches))
            return iter(batches)

        monkeypatch.setattr(superstep, "_left_batches", counted)
        budget = budget_bytes(budget_name, reference)
        computation = GraspanEngine(
            grammar,
            max_edges_per_partition=max_edges,
            workdir=tmp_path,
            memory_budget=budget,
            parallel_backend=backend,
            num_threads=2,
        ).run(graph)
        assert_same_closure(reference, computation)
        assert max(batches_per_join) > 2
        stats = computation.stats
        assert stats.peak_resident_bytes <= budget + stats.max_partition_bytes
        assert stats.total_edges_added == stats.final_edges - stats.original_edges
        assert any(not r.completed for r in stats.supersteps)

    def test_budget_derived_early_stop(self, graph, grammar, reference, tmp_path):
        """No partition size, so the only mid-superstep limit is what the
        budget can still hold: it must fire, and the closure must not move."""
        engine = GraspanEngine(
            grammar, workdir=tmp_path, memory_budget=reference["total_bytes"] // 4
        )
        assert engine.mid_superstep_limit() == 0
        computation = engine.run(graph)
        assert_same_closure(reference, computation)
        stats = computation.stats
        assert any(not r.completed for r in stats.supersteps)
        assert stats.total_edges_added == stats.final_edges - stats.original_edges

    def test_pair_scheduler_loads_at_most_two(self, graph, grammar, max_edges, reference, tmp_path):
        computation = GraspanEngine(
            grammar,
            max_edges_per_partition=max_edges,
            workdir=tmp_path,
            scheduler=PairScheduler(),
        ).run(graph)
        assert_same_closure(reference, computation)
        stats = computation.stats
        assert all(1 <= len(r.pair) <= 2 for r in stats.supersteps)
        # Pairs need more supersteps than the unbudgeted sets.
        assert stats.num_supersteps > len(reference["records"])


class TestCrashResume:
    @pytest.mark.parametrize("budget_name", ["none", "everything"])
    def test_crash_after_every_commit_resumes_same_sets(
        self, graph, grammar, max_edges, reference, tmp_path, budget_name
    ):
        """Where the budget does not bind, a set depends only on the DDM,
        so the resumed run replays the uninterrupted run's tail exactly."""
        budget = budget_bytes(budget_name, reference)

        def engine(workdir, injector=None):
            return GraspanEngine(
                grammar,
                max_edges_per_partition=max_edges,
                workdir=workdir,
                memory_budget=budget,
                fault_injector=injector,
            )

        records = records_of(engine(tmp_path / "uninterrupted").run(graph).stats)
        for commit in range(1, len(records) + 2):
            workdir = tmp_path / f"crash-{commit}"
            injector = FaultInjector(FaultPlan(crash_after_commit=commit))
            with pytest.raises(InjectedCrash):
                engine(workdir, injector).run(graph)
            resumed = engine(workdir).run(graph, resume=True)
            assert_same_closure(reference, resumed)
            assert resumed.stats.resumed_from_superstep == commit - 1
            assert records_of(resumed.stats) == records[commit - 1 :]

    def test_seeded_random_fault_under_binding_budget(
        self, graph, grammar, max_edges, reference, tmp_path
    ):
        """The CI fault-tolerance matrix's entry point here: one seeded
        fault (``REPRO_FAULT_SEED``) into a run whose budget binds, so
        narrow sets, evictions and write-backs are all in play."""
        plan = FaultPlan.random(int(os.environ.get("REPRO_FAULT_SEED", "1")))
        kwargs = dict(
            max_edges_per_partition=max_edges,
            workdir=tmp_path,
            memory_budget=budget_bytes("fits-two", reference),
        )
        injector = FaultInjector(plan)
        try:
            computation = GraspanEngine(
                grammar, fault_injector=injector, **kwargs
            ).run(graph)
        except InjectedCrash:
            computation = GraspanEngine(grammar, **kwargs).run(graph, resume=True)
        except PartitionCorruptError:
            assert plan.flip_byte_at_write is not None
            return  # detection is the guarantee for corruption faults
        assert_same_closure(reference, computation)

    def test_tight_budget_crash_resumes_byte_identical(
        self, graph, grammar, max_edges, reference, tmp_path
    ):
        budget = budget_bytes("fits-two", reference)
        injector = FaultInjector(FaultPlan(crash_after_commit=3))
        kwargs = dict(
            max_edges_per_partition=max_edges, workdir=tmp_path, memory_budget=budget
        )
        with pytest.raises(InjectedCrash):
            GraspanEngine(grammar, fault_injector=injector, **kwargs).run(graph)
        resumed = GraspanEngine(grammar, **kwargs).run(graph, resume=True)
        assert_same_closure(reference, resumed)
        assert resumed.stats.resumed_from_superstep == 2
        assert resumed.stats.peak_resident_bytes <= budget + resumed.stats.max_partition_bytes
