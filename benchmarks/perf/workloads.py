"""Workload definitions: seeded input generators, size constants, engine configs.

Every input is generated here from ``--seed``; the program under test only
ever sees the generated graphs and sources.  One run builds
``SIZES["instances"]`` independent instances of its workload (sub-seeds of
``--seed``) and cycles its timed repeats over them, so a run's median is
taken over several inputs of the same distribution rather than one draw.

The size constants are the only thing tuned to this sandbox; each one is
set so that one closure takes 1-2.5 s here (see README.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

SIZES: Dict[str, object] = {
    "instances": 3,
    "min_repeats": 3,
    # expected.json holds the default seed's answers at these sizes only
    "anchored": True,
    # pointer-ooc / pointer-matmul: one whole-program graph is the disjoint
    # union of this many independently generated httpd-like codebases.  The
    # union keeps every seed's input within ~1 % of the same size (a single
    # generated codebase varies by 4-10 %), so seeds change the structure,
    # not the amount of work.
    "pointer_program": "httpd",
    "pointer_scale": 1.0,
    "pointer_components": 7,
    "pointer_partitions": 6,  # max_edges_per_partition = E // 6
    "pointer_budget": 8 << 20,
    # random strongly connected digraphs, m = 5 n
    "dense_n": 300,
    "dist_n": 170,
    "dist_max_edges": 1500,
    "dist_workers": 2,
    # dataflow-ooc: the union of seven postgresql-like codebases, cut into
    # many small partitions so each codebase spans several
    "dataflow_program": "postgresql",
    "dataflow_scale": 1.0,
    "dataflow_components": 7,
    "dataflow_partitions": 48,  # max_edges_per_partition = E // 48
    "dataflow_budget": 4 << 20,
    # reduced-scale instance checked against the Datalog baseline
    "datalog_program": "httpd",
    "datalog_scale": 0.5,
    # service-mix: generated programs behind the daemon
    "service_program": "httpd",
    "service_scale": 1.5,
    "service_max_edges": 4000,
    "service_budget": 8 << 20,
    "service_edits": 12,
    # nominal seconds of one cold load here; fixes how many a run makes
    "service_cold_load_s": 0.34,
}

#: ``--smoke``: every size shrunk so the whole command ends in seconds.
SMOKE_SIZES: Dict[str, object] = dict(
    SIZES,
    instances=2,
    min_repeats=1,
    anchored=False,
    pointer_scale=0.3,
    pointer_components=2,
    dense_n=60,
    dist_n=40,
    dist_max_edges=400,
    dataflow_program="httpd",
    dataflow_scale=1.0,
    dataflow_components=1,
    dataflow_partitions=6,
    datalog_scale=0.1,
    service_program="httpd",
    service_scale=0.5,
    service_max_edges=1500,
    service_edits=3,
    service_cold_load_s=0.1,
)


def sub_seed(seed: int, index: int) -> int:
    """The seed of instance ``index`` of a run started with ``--seed seed``."""
    return seed * 1000 + index


@dataclass
class Instance:
    """One generated input plus what is needed to check a closure of it."""

    graph: object  # MemGraph, labels aligned to the grammar
    reference: Callable[[], tuple]  # -> verify.Digest, computed independently


@dataclass
class ClosureWorkload:
    name: str
    grammar: Callable[[], object]
    build: Callable[[int, Dict[str, object], object], Instance]
    #: GraspanEngine keyword arguments for one repeat (workdir is None in memory).
    engine_args: Callable[[object, Optional[str], Dict[str, object]], Dict[str, object]]
    out_of_core: bool
    #: The reduced-scale graph checked against the Datalog baseline, if any.
    datalog_graph: Optional[Callable[[int, Dict[str, object], object], object]] = None


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def generated_program(kind: str, scale: float, seed: int):
    """One generated codebase (sources + ground truth) of the named family."""
    from repro.workloads import ALL_WORKLOADS

    return ALL_WORKLOADS[kind](scale=scale, seed=seed)


def analysis_graph(which: str, prefix: str, seed: int, sizes, grammar):
    """The ``pointer`` or ``dataflow`` graph of ``<prefix>_components``
    generated codebases, as one graph over disjoint vertex ranges."""
    from repro import frontend
    from repro.engine.engine import align_graph_labels
    from repro.graph import MemGraph, packed

    extract = {"pointer": frontend.pointer_graph, "dataflow": frontend.dataflow_graph}[which]
    src, dst, labels = [], [], []
    offset = 0
    for part in range(int(sizes.get(f"{prefix}_components", 1))):
        program = generated_program(
            sizes[f"{prefix}_program"], float(sizes[f"{prefix}_scale"]), seed * 64 + part
        )
        graph = align_graph_labels(extract(program.compile()), grammar)
        keys = np.asarray(graph.keys)
        src.append(np.asarray(graph.src) + offset)
        dst.append(packed.targets_of(keys) + offset)
        labels.append(packed.labels_of(keys))
        offset += graph.num_vertices
    return MemGraph.from_arrays(
        np.concatenate(src), np.concatenate(dst), np.concatenate(labels),
        num_vertices=offset, label_names=grammar.names,
    )


def _build_analysis(which: str):
    def build(seed: int, sizes, grammar) -> Instance:
        from benchmarks.perf import verify

        graph = analysis_graph(which, which, seed, sizes, grammar)
        return Instance(graph, lambda: verify.reference_closure(graph, grammar))

    return build


def _datalog_graph(which: str):
    return lambda seed, sizes, grammar: analysis_graph(which, "datalog", seed, sizes, grammar)


def strongly_connected_digraph(seed: int, n: int):
    """``5 n`` edges: a random Hamiltonian cycle plus ``4 n`` random chords.

    The cycle makes every seed's closure exactly ``n * n`` paths, so the
    work per run does not depend on how large a random graph's giant
    component happened to come out.
    """
    rng = np.random.default_rng(seed)
    cycle = rng.permutation(n)
    src = np.concatenate([cycle, rng.integers(0, n, 4 * n)])
    dst = np.concatenate([np.roll(cycle, -1), rng.integers(0, n, 4 * n)])
    return src.astype(np.int64), dst.astype(np.int64)


def _build_dense(size_key: str):
    def build(seed: int, sizes, grammar) -> Instance:
        from benchmarks.perf import verify
        from repro.graph import MemGraph

        n = int(sizes[size_key])
        src, dst = strongly_connected_digraph(seed, n)
        edge, path = grammar.label_id("E"), grammar.label_id("R")
        graph = MemGraph.from_arrays(
            src, dst, np.full(len(src), edge, dtype=np.int64),
            num_vertices=n, label_names=grammar.names,
        )
        return Instance(
            graph, lambda: verify.dense_transitive_closure(n, src, dst, edge, path)
        )

    return build


# ---------------------------------------------------------------------------
# the five closure workloads (service-mix lives in service.py)
# ---------------------------------------------------------------------------


def _grammar(name: str):
    def load():
        from repro.grammar import builtin

        return getattr(builtin, name)()

    return load


def _partitioned(parts_key: str, budget_key: str):
    def args(graph, workdir, sizes):
        return {
            "max_edges_per_partition": max(1, graph.num_edges // int(sizes[parts_key])),
            "workdir": workdir,
            "memory_budget": int(sizes[budget_key]),
        }

    return args


def _distributed_args(graph, workdir, sizes):
    return {
        "max_edges_per_partition": int(sizes["dist_max_edges"]),
        "workdir": workdir,
        "parallel_backend": "distributed",
        "distributed": {"workers": min(int(sizes["dist_workers"]), os.cpu_count() or 1)},
    }


CLOSURE_WORKLOADS = {
    w.name: w
    for w in [
        ClosureWorkload(
            "pointer-ooc",
            _grammar("pointsto_grammar_extended"),
            _build_analysis("pointer"),
            _partitioned("pointer_partitions", "pointer_budget"),
            out_of_core=True,
            datalog_graph=_datalog_graph("pointer"),
        ),
        ClosureWorkload(
            "pointer-matmul",
            _grammar("pointsto_grammar_extended"),
            _build_analysis("pointer"),
            lambda graph, workdir, sizes: {"parallel_backend": "matmul"},
            out_of_core=False,
            datalog_graph=_datalog_graph("pointer"),
        ),
        ClosureWorkload(
            "dense-reach",
            _grammar("reachability_grammar"),
            _build_dense("dense_n"),
            lambda graph, workdir, sizes: {},
            out_of_core=False,
        ),
        ClosureWorkload(
            "dense-reach-dist2w",
            _grammar("reachability_grammar"),
            _build_dense("dist_n"),
            _distributed_args,
            out_of_core=True,
        ),
        ClosureWorkload(
            "dataflow-ooc",
            _grammar("nullflow_grammar"),
            _build_analysis("dataflow"),
            _partitioned("dataflow_partitions", "dataflow_budget"),
            out_of_core=True,
            datalog_graph=_datalog_graph("dataflow"),
        ),
    ]
}
