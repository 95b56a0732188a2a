"""The closure store: a persistent cache of finished closures (DESIGN.md §14).

Graspan answers *queries* against a computed closure; the closure itself
only changes when the program (or the grammar) does.  The store makes
that explicit: every finished closure is kept on disk as one *entry*
keyed by ``(grammar_fingerprint, graph_fingerprint)``, and a request for
a closure resolves in the cheapest sufficient way:

exact hit
    The keyed entry exists and is complete — restore its partition set
    from the PR 4 manifest and return it: zero supersteps.

incremental (delta re-closure)
    No exact entry, but a completed entry under the *same grammar* whose
    input graph differs from the new one only by **added** edges over the
    **same vertex set**.  The base entry's partition files are hard-linked
    (copied when linking fails) into the new entry, its manifest restores
    the finished closure, and the added input edges are merged into their
    partitions' flat arrays while the DDM is bulk-bumped exactly as a
    superstep would — so every pair that could interact with a delta edge
    is dirty again.  A seeded :class:`~repro.engine.session.ClosureSession`
    then re-runs supersteps *from the old fixed point* instead of from
    scratch.  Because the grammar-guided closure is monotone and the
    superstep fixpoint confluent, the seeded state ``old_closure ∪ Δ``
    (which satisfies ``new_input ⊆ seed ⊆ closure(new_input)``) converges
    to the byte-identical closure a cold run computes.

cold
    Anything else — no base, deleted input edges, or a changed vertex
    set (deletions break the monotonicity argument above; renumbered
    vertices invalidate the partition table) — computes from scratch
    into the new entry.

Crash safety rides on PR 4 unchanged: every entry directory is a normal
engine workdir with a journal + manifest, and the completion marker
(``closure.json``, written atomically last) distinguishes finished
entries from interrupted ones.  A request for an interrupted entry
resumes it from its committed watermark — the daemon's kill → restart →
re-serve story costs only the supersteps after the last commit.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.engine.checkpoint import (
    MANIFEST_NAME,
    CheckpointError,
    RunJournal,
    grammar_fingerprint,
    graph_fingerprint,
    restore_partition_set,
)
from repro.engine.engine import GraspanComputation, GraspanEngine, align_graph_labels
from repro.engine.join import CsrView
from repro.engine.pairset import fold_raw_pairs, pairs_for_arrays
from repro.engine.scheduler import Scheduler
from repro.engine.session import ClosureSession, record_added_edges
from repro.engine.stats import EngineStats
from repro.graph.graph import MemGraph
from repro.grammar.grammar import FrozenGrammar
from repro.partition.preprocess import planned_partition_table
from repro.partition.pset import PartitionSet
from repro.partition.storage import PartitionCorruptError, PartitionStore
from repro.util.retry import RetryPolicy

#: Exceptions that mean "this entry's on-disk state is unusable" — a
#: corrupt partition payload or an inconsistent manifest.  The store
#: degrades these to a cold recompute instead of failing the request;
#: :class:`~repro.util.faults.InjectedCrash` is *not* in this set (it is
#: a ``BaseException`` precisely so recovery paths cannot absorb it).
_ENTRY_UNUSABLE = (PartitionCorruptError, CheckpointError)

PathLike = Union[str, Path]

#: The per-entry completion marker; written atomically after the closure
#: finishes, so its presence certifies the manifest is a *final* state.
META_NAME = "closure.json"

#: The per-entry input snapshot the incremental diff runs against.
INPUT_NAME = "input.npz"

META_FORMAT = 1


def edge_diff(
    base_src: np.ndarray,
    base_keys: np.ndarray,
    new_src: np.ndarray,
    new_keys: np.ndarray,
) -> Tuple[np.ndarray, int]:
    """Set-diff two deduplicated flat edge lists.

    Returns ``(added_mask, deleted)``: a boolean mask over the *new*
    arrays marking edges absent from the base, and the count of base
    edges absent from the new graph.  Both inputs are
    :class:`~repro.graph.graph.MemGraph` columns, already lexsorted and
    unique, so each direction is one pair-set membership test.
    """
    ops = pairs_for_arrays((base_src, base_keys), (new_src, new_keys))
    base = ops.encode(base_src, base_keys)
    new = ops.encode(new_src, new_keys)
    added_mask = ~ops.contains(new, base)
    deleted = len(base_src) - int(np.count_nonzero(ops.contains(base, new)))
    return added_mask, deleted


def seed_delta_edges(
    pset: PartitionSet, added_src: np.ndarray, added_keys: np.ndarray
) -> int:
    """Merge delta input edges into a restored closure's partitions.

    For each touched partition the added edges are merged into the flat
    ``(src, key)`` arrays with the superstep's pair-set algebra (dedup,
    drop what the closure already derived — a no-op edge — then the
    linear merge), and the DDM is updated exactly as the superstep loop
    would: the row is recomputed exactly and the bulk new-edge
    accounting bumps the source partitions' versions, marking every
    interacting pair dirty.  Returns the number of partitions seeded.
    """
    if len(added_src) == 0:
        return 0
    lows = pset.interval_lows()
    pid_of = np.searchsorted(lows, added_src, side="right") - 1
    touched = np.unique(pid_of)
    for pid_ in touched.tolist():
        pid = int(pid_)
        sel = pid_of == pid
        part = pset.acquire(pid)
        merged, _ = fold_raw_pairs(
            (np.repeat(part.vertices, part.row_lengths()), part.keys),
            (added_src[sel], added_keys[sel]),
        )
        view = CsrView.from_flat(*merged)
        part.replace_csr(view.vertices, view.indptr, view.keys)
        pset.note_mutated(pid)
        pset.ddm.set_exact_row(pid, part.destination_counts(pset.vit))
    record_added_edges(pset, added_src, added_keys)
    return int(len(touched))


class ClosureStore:
    """Persistent, incrementally-updatable cache of finished closures.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per cache entry, named
        ``<grammar_crc>-<graph_crc>`` in hex.
    max_edges_per_partition / num_partitions / memory_budget /
    num_threads / parallel_backend / fault_injector / retry:
        Engine configuration applied to every closure the store computes
        (each entry directory becomes that run's workdir).  When an
        analysis is handed a store, this configuration wins over the
        analysis's own engine sizing — one consistent cache, not one per
        caller.

    Thread safety: :meth:`closure` serializes computations under one
    lock (concurrent daemon queries for the *same* closure should
    compute it once); finished computations are safe to query
    concurrently because :class:`~repro.partition.pset.PartitionSet`
    is internally locked.
    """

    def __init__(
        self,
        root: PathLike,
        max_edges_per_partition: Optional[int] = None,
        num_partitions: Optional[int] = None,
        memory_budget: Optional[int] = None,
        num_threads: int = 1,
        parallel_backend: Optional[str] = None,
        fault_injector=None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_edges_per_partition = max_edges_per_partition
        self.num_partitions = num_partitions
        self.memory_budget = memory_budget
        self.num_threads = num_threads
        self.parallel_backend = parallel_backend
        self.fault_injector = fault_injector
        self.retry = retry
        self._lock = threading.RLock()
        #: Requests that found their entry (or its incremental base)
        #: corrupt and fell back to a cold recompute.
        self.degraded_to_cold = 0
        self._warned_degraded = False

    # ------------------------------------------------------------------
    # keys and entries
    # ------------------------------------------------------------------
    def graph_key(
        self, grammar: FrozenGrammar, graph: MemGraph
    ) -> Tuple[int, int]:
        """The ``(grammar_crc, graph_crc)`` cache key for an aligned graph.

        The graph fingerprint folds in the *planned* partition table, so
        a store configured with different partition sizing keys different
        entries for the same edges — cached manifests are only reusable
        under the layout they were computed with.
        """
        return (
            grammar_fingerprint(grammar),
            graph_fingerprint(
                graph,
                partition_table=planned_partition_table(
                    graph, self.max_edges_per_partition, self.num_partitions
                ),
            ),
        )

    def entry_dir(self, grammar_crc: int, graph_crc: int) -> Path:
        return self.root / f"{grammar_crc:08x}-{graph_crc:08x}"

    def entries(self) -> List[Dict[str, object]]:
        """Metadata of every *completed* entry, newest first."""
        metas: List[Dict[str, object]] = []
        for meta_path in sorted(
            self.root.glob("*/" + META_NAME),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        ):
            try:
                with open(meta_path, "r", encoding="utf-8") as fh:
                    meta = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            meta["entry"] = meta_path.parent.name
            metas.append(meta)
        return metas

    # ------------------------------------------------------------------
    # the one public verb
    # ------------------------------------------------------------------
    def closure(
        self, grammar: FrozenGrammar, graph: MemGraph
    ) -> GraspanComputation:
        """A finished closure of ``graph`` under ``grammar``.

        Resolution order: exact cache hit → resume of an interrupted
        entry → incremental delta re-closure from a same-grammar base →
        cold run.  ``stats.closure_source`` on the returned computation
        records which path was taken (``"cache"``, ``"cold"``, or
        ``"incremental"``), and the ``delta_*`` stats size the diff.

        A cache / resume / incremental path that trips over corrupt
        on-disk state (checksum mismatch, truncated payload, manifest
        inconsistency) *degrades to a cold run* instead of failing the
        request: the bad entry is discarded, a one-shot warning is
        emitted (mirroring the join backend's ``_degrade``), and
        ``degraded_to_cold`` counts every occurrence for the daemon's
        health report.  Injected crashes are never absorbed here.
        """
        graph = align_graph_labels(graph, grammar)
        grammar_crc, graph_crc = self.graph_key(grammar, graph)
        entry = self.entry_dir(grammar_crc, graph_crc)
        with self._lock:
            engine = self._engine_for(grammar, entry)
            if (entry / META_NAME).exists():
                try:
                    computation = engine.run(graph, resume=True)
                except _ENTRY_UNUSABLE as exc:
                    return self._degraded_cold(
                        grammar, graph, grammar_crc, graph_crc, entry, exc
                    )
                computation.stats.closure_source = "cache"
                return computation
            if (entry / MANIFEST_NAME).exists():
                # Interrupted cold or incremental run: resume it from the
                # committed watermark (the daemon's crash-recovery path).
                try:
                    computation = engine.run(graph, resume=True)
                except _ENTRY_UNUSABLE as exc:
                    return self._degraded_cold(
                        grammar, graph, grammar_crc, graph_crc, entry, exc
                    )
                self._save_entry(
                    entry, graph, grammar_crc, graph_crc, computation, "cold"
                )
                return computation
            plan = self._find_base(grammar_crc, graph)
            if plan is not None:
                base_dir, added_src, added_keys = plan
                try:
                    return self._incremental(
                        grammar,
                        graph,
                        grammar_crc,
                        graph_crc,
                        entry,
                        base_dir,
                        added_src,
                        added_keys,
                    )
                except _ENTRY_UNUSABLE as exc:
                    # The base entry's files (hard-linked into this one)
                    # are bad: shed the incremental plan entirely.
                    return self._degraded_cold(
                        grammar, graph, grammar_crc, graph_crc, entry, exc
                    )
            computation = engine.run(graph)
            self._save_entry(
                entry, graph, grammar_crc, graph_crc, computation, "cold"
            )
            return computation

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _degraded_cold(
        self,
        grammar: FrozenGrammar,
        graph: MemGraph,
        grammar_crc: int,
        graph_crc: int,
        entry: Path,
        exc: Exception,
    ) -> GraspanComputation:
        """Discard an unusable entry and recompute from scratch."""
        self.degraded_to_cold += 1
        if not self._warned_degraded:
            self._warned_degraded = True
            warnings.warn(
                f"closure store entry {entry.name} is unusable "
                f"({type(exc).__name__}: {exc}); degrading to a cold "
                "recompute. Further degradations in this store will not "
                "be reported individually.",
                RuntimeWarning,
                stacklevel=3,
            )
        shutil.rmtree(entry, ignore_errors=True)
        engine = self._engine_for(grammar, entry)
        computation = engine.run(graph)
        self._save_entry(
            entry, graph, grammar_crc, graph_crc, computation, "cold"
        )
        return computation

    def _engine_for(self, grammar: FrozenGrammar, entry: Path) -> GraspanEngine:
        entry.mkdir(parents=True, exist_ok=True)
        return GraspanEngine(
            grammar,
            max_edges_per_partition=self.max_edges_per_partition,
            num_partitions=self.num_partitions,
            workdir=entry,
            num_threads=self.num_threads,
            parallel_backend=self.parallel_backend,
            memory_budget=self.memory_budget,
            checkpoint=True,
            fault_injector=self.fault_injector,
            retry=self.retry,
        )

    def _find_base(
        self, grammar_crc: int, graph: MemGraph
    ) -> Optional[Tuple[Path, np.ndarray, np.ndarray]]:
        """The newest completed same-grammar entry reachable by additions.

        Skips candidates with a different vertex count (renumbering) or
        with edges the new graph lacks (deletions) — both fall back to a
        cold run, per the delta-seeding rules in DESIGN.md §14.
        """
        prefix = f"{grammar_crc:08x}-"
        candidates = [
            p
            for p in self.root.glob(prefix + "*/" + META_NAME)
            if (p.parent / INPUT_NAME).exists()
        ]
        candidates.sort(key=lambda p: p.stat().st_mtime, reverse=True)
        for meta_path in candidates:
            base_dir = meta_path.parent
            try:
                with np.load(base_dir / INPUT_NAME) as data:
                    base_src = np.asarray(data["src"], dtype=np.int64)
                    base_keys = np.asarray(data["keys"], dtype=np.int64)
                    base_vertices = int(data["num_vertices"])
            except (OSError, KeyError, ValueError):
                continue
            if base_vertices != graph.num_vertices:
                continue
            added_mask, deleted = edge_diff(
                base_src, base_keys, graph.src, graph.keys
            )
            if deleted:
                continue
            return base_dir, graph.src[added_mask], graph.keys[added_mask]
        return None

    def _incremental(
        self,
        grammar: FrozenGrammar,
        graph: MemGraph,
        grammar_crc: int,
        graph_crc: int,
        entry: Path,
        base_dir: Path,
        added_src: np.ndarray,
        added_keys: np.ndarray,
    ) -> GraspanComputation:
        """Delta re-closure: seed from ``base_dir`` and run to fixpoint."""
        engine = self._engine_for(grammar, entry)
        with open(base_dir / MANIFEST_NAME, "r", encoding="utf-8") as fh:
            base_manifest = json.load(fh)
        for slot in base_manifest["slots"]:
            target = entry / slot["file"]
            if not target.exists():
                try:
                    os.link(base_dir / slot["file"], target)
                except OSError:
                    shutil.copy2(base_dir / slot["file"], target)

        stats = EngineStats(
            original_edges=graph.num_edges, num_vertices=graph.num_vertices
        )
        stats.closure_source = "incremental"
        stats.delta_added_edges = int(len(added_src))
        stats.initial_partitions = int(base_manifest["initial_partitions"])
        stats.repartition_count = int(base_manifest["repartition_count"])

        journal = RunJournal(entry, injector=self.fault_injector)
        journal.append(
            {
                "event": "delta",
                "base": base_dir.name,
                "added_edges": int(len(added_src)),
                "base_superstep": int(base_manifest["superstep"]),
            }
        )
        journal.save_degrees(graph.out_degrees(), graph.in_degrees())
        pstore = PartitionStore(
            workdir=entry,
            timers=stats.timers,
            retry=self.retry if self.retry is not None else RetryPolicy(),
            injector=self.fault_injector,
        )
        pset = restore_partition_set(
            base_manifest, pstore, journal, memory_budget=self.memory_budget
        )
        stats.delta_seed_partitions = seed_delta_edges(
            pset, added_src, added_keys
        )

        session = ClosureSession(
            engine,
            graph,
            pset=pset,
            journal=journal,
            store=pstore,
            superstep_index=int(base_manifest["superstep"]),
            stats=stats,
            scheduler=Scheduler(),
        )
        try:
            session.open()
            computation = session.run()
        finally:
            session.close()
        self._save_entry(
            entry,
            graph,
            grammar_crc,
            graph_crc,
            computation,
            "incremental",
            base=base_dir.name,
        )
        return computation

    def _save_entry(
        self,
        entry: Path,
        graph: MemGraph,
        grammar_crc: int,
        graph_crc: int,
        computation: GraspanComputation,
        source: str,
        base: Optional[str] = None,
    ) -> None:
        """Snapshot the input and write the completion marker (last)."""
        np.savez(
            entry / INPUT_NAME,
            src=np.asarray(graph.src, dtype=np.int64),
            keys=np.asarray(graph.keys, dtype=np.int64),
            num_vertices=np.int64(graph.num_vertices),
        )
        meta = {
            "format": META_FORMAT,
            "grammar_crc": grammar_crc,
            "graph_crc": graph_crc,
            "source": source,
            "base": base,
            "supersteps": computation.stats.num_supersteps,
            "final_edges": computation.stats.final_edges,
            "delta_added_edges": computation.stats.delta_added_edges,
            "created_at": time.time(),
        }
        tmp = entry / (META_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, separators=(",", ":")))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, entry / META_NAME)
