"""Superstep-granular checkpointing: the run journal and manifest.

A Graspan closure over a Linux-scale graph runs for hours; losing the
whole fixpoint to a crash in hour three is not acceptable for the
"production-scale" north star.  This module makes the engine's on-disk
state *resumable* at superstep granularity (DESIGN.md §9):

``journal.jsonl``
    An append-only, fsync'd JSONL event log in the store directory —
    ``begin``, ``commit``, ``resume``, ``finish`` records.  The journal
    is the audit trail (and the replay source for tests); it is never
    required for correctness.

``manifest.json``
    The authoritative checkpoint, replaced atomically (tmp + fsync +
    ``os.replace`` + directory fsync) after every superstep.  It records
    the grammar and input-graph fingerprints, the completed-superstep
    watermark, the partition table (file name, edge count, byte size per
    slot), the full DDM state, and the scheduler state.

The commit protocol orders durability correctly:

1. every dirty resident partition is written out **durably**
   (:meth:`~repro.partition.pset.PartitionSet.flush_dirty` — fsync'd
   file + directory), with the *old* files retired, not deleted;
2. the new manifest is atomically replaced and fsync'd — this is the
   commit point: before it, a crash resumes from the previous
   watermark against the previous files (still on disk); after it,
   from the new one;
3. only then are the retired files purged
   (:meth:`~repro.partition.storage.PartitionStore.purge_retired`).

Resume (:func:`restore_partition_set`) validates the fingerprints, and
rebuilds the partition set with every slot evicted — partitions reload
lazily from their checkpointed files.  Because the superstep fixpoint is
confluent (any fair processing order of dirty DDM pairs reaches the same
closure), the resumed run's final edge set is byte-identical to an
uninterrupted run's even though the scheduler's residency tie-break may
diverge after the restart.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.grammar.grammar import FrozenGrammar
from repro.partition.ddm import DestinationDistributionMap
from repro.partition.interval import Interval, VertexIntervalTable
from repro.partition.pset import PartitionSet
from repro.partition.storage import PartitionStore

PathLike = Union[str, Path]

#: Version of the manifest schema; bumped on incompatible changes.
MANIFEST_FORMAT = 1

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
DEGREES_NAME = "degrees.npz"


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be resumed (mismatched run, bad data)."""


def grammar_fingerprint(grammar: FrozenGrammar) -> int:
    """A stable CRC32 of the grammar's labels and productions.

    Resuming under a different grammar would silently compute a different
    closure against checkpointed partial state; the fingerprint turns
    that into a hard :class:`CheckpointError`.
    """
    payload = json.dumps(
        [
            list(grammar.names),
            [[p.lhs, p.rhs1, p.rhs2] for p in grammar.productions],
        ],
        separators=(",", ":"),
    )
    return zlib.crc32(payload.encode("utf-8"))


def graph_fingerprint(graph, partition_table=None) -> int:
    """CRC32 over the aligned input graph's flat edge arrays.

    ``partition_table`` — the planned ``[[lo, hi], ...]`` interval table
    (see :func:`repro.partition.preprocess.planned_partition_table`) — is
    folded into the digest when given.  The closure cache keys entries by
    this fingerprint, and a repartitioned but edge-identical graph must
    *not* hit a cache entry computed under a different partition layout:
    the cached manifest's partition files, DDM shape, and scheduler state
    all assume the old table.
    """
    crc = zlib.crc32(np.ascontiguousarray(graph.src, dtype=np.int64).data)
    crc = zlib.crc32(np.ascontiguousarray(graph.keys, dtype=np.int64).data, crc)
    crc = zlib.crc32(
        json.dumps([graph.num_vertices, list(graph.label_names)]).encode("utf-8"),
        crc,
    )
    if partition_table is not None:
        crc = zlib.crc32(
            json.dumps(
                [[int(lo), int(hi)] for lo, hi in partition_table]
            ).encode("utf-8"),
            crc,
        )
    return crc


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class RunJournal:
    """The journal + manifest pair for one store directory."""

    def __init__(self, workdir: PathLike, injector=None) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.workdir / MANIFEST_NAME
        self.journal_path = self.workdir / JOURNAL_NAME
        self.injector = injector

    # -- journal (append-only, advisory) --------------------------------
    def append(self, event: Dict[str, object]) -> None:
        line = json.dumps(event, separators=(",", ":"))
        with open(self.journal_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def events(self) -> Iterator[Dict[str, object]]:
        """Replay the journal: parsed events, skipping a torn final line."""
        if not self.journal_path.exists():
            return
        with open(self.journal_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    # A crash mid-append can tear exactly the last line;
                    # the manifest, not the journal, is authoritative.
                    return

    # -- manifest (atomic, authoritative) -------------------------------
    def commit(self, manifest: Dict[str, object]) -> None:
        """Atomically replace the manifest; the checkpoint's commit point."""
        if self.injector is not None:
            self.injector.on_commit_start()
        tmp = self.manifest_path.with_name(self.manifest_path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                # dumps() runs the C encoder; dump() always takes the
                # pure-Python iterencode path (same bytes, far slower on
                # the P×P DDM matrices).
                fh.write(json.dumps(manifest, separators=(",", ":")))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.manifest_path)
            _fsync_dir(self.workdir)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.append({"event": "commit", "superstep": manifest["superstep"]})
        if self.injector is not None:
            self.injector.on_commit_done()

    def load_manifest(self) -> Optional[Dict[str, object]]:
        """The last committed manifest, or None when there is nothing to resume."""
        if not self.manifest_path.exists():
            return None
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"{self.manifest_path}: unreadable run manifest: {exc}"
            ) from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise CheckpointError(
                f"{self.manifest_path}: unsupported manifest format"
                f" {manifest.get('format')!r} (expected {MANIFEST_FORMAT})"
            )
        return manifest

    def save_degrees(
        self, out_degrees: Optional[np.ndarray], in_degrees: Optional[np.ndarray]
    ) -> None:
        """Persist the (immutable) degree arrays once, outside the manifest."""
        if out_degrees is None or in_degrees is None:
            return
        np.savez(
            self.workdir / DEGREES_NAME,
            out_degrees=np.asarray(out_degrees, dtype=np.int64),
            in_degrees=np.asarray(in_degrees, dtype=np.int64),
        )

    def load_degrees(self):
        path = self.workdir / DEGREES_NAME
        if not path.exists():
            return None, None
        with np.load(path) as data:
            return (
                np.asarray(data["out_degrees"], dtype=np.int64),
                np.asarray(data["in_degrees"], dtype=np.int64),
            )


# ---------------------------------------------------------------------------
# manifest <-> engine state
# ---------------------------------------------------------------------------


def ddm_state(ddm: DestinationDistributionMap) -> Dict[str, object]:
    return {
        "counts": ddm.counts.tolist(),
        "added_since_sync": ddm.added_since_sync.tolist(),
        "version": ddm.version.tolist(),
        "synced_version": ddm.synced_version.tolist(),
    }


def ddm_from_state(state: Dict[str, object]) -> DestinationDistributionMap:
    ddm = DestinationDistributionMap(np.asarray(state["counts"], dtype=np.int64))
    ddm.added_since_sync = np.asarray(state["added_since_sync"], dtype=np.int64)
    ddm.version = np.asarray(state["version"], dtype=np.int64)
    ddm.synced_version = np.asarray(state["synced_version"], dtype=np.int64)
    return ddm


def scheduler_state(scheduler) -> Dict[str, object]:
    """Serialize scheduler-internal state (cursor etc.); {} if stateless."""
    state_fn = getattr(scheduler, "state_dict", None)
    return state_fn() if state_fn is not None else {}


def restore_scheduler(scheduler, state: Dict[str, object]) -> None:
    load_fn = getattr(scheduler, "load_state_dict", None)
    if load_fn is not None and state:
        load_fn(state)


def build_manifest(
    pset: PartitionSet,
    superstep: int,
    grammar_crc: int,
    graph_crc: int,
    scheduler,
    original_edges: int,
    initial_partitions: int,
    repartition_count: int,
) -> Dict[str, object]:
    """Snapshot the whole resumable state into a JSON-serializable dict.

    Partition paths are stored relative to the workdir so the directory
    can be moved between machines.  Every slot must have a disk copy —
    callers run :meth:`PartitionSet.flush_dirty` first.
    """
    workdir = pset.store.workdir
    # Partition files live directly in the workdir, so the relative path
    # is a prefix strip; relpath (two abspath normalizations per slot per
    # commit) is only the fallback.
    prefix = os.path.join(os.fspath(workdir), "")
    slots: List[Dict[str, object]] = []
    for pid in range(pset.num_partitions):
        slot = pset.slot_state(pid)
        if slot["path"] is None:
            raise CheckpointError(
                f"partition {pid} has no disk copy; flush_dirty before commit"
            )
        path = os.fspath(slot["path"])
        slots.append(
            {
                "file": (
                    path[len(prefix) :]
                    if path.startswith(prefix)
                    else os.path.relpath(path, workdir)
                ),
                "edges": slot["edges"],
                "nbytes": slot["nbytes"],
            }
        )
    return {
        "format": MANIFEST_FORMAT,
        "grammar_crc": grammar_crc,
        "graph_crc": graph_crc,
        "superstep": superstep,
        "original_edges": original_edges,
        "initial_partitions": initial_partitions,
        "num_vertices": pset.num_vertices,
        "repartition_count": repartition_count,
        "label_names": list(pset.label_names),
        "vit": [[iv.lo, iv.hi] for iv in pset.vit.intervals()],
        "slots": slots,
        "ddm": ddm_state(pset.ddm),
        "scheduler": scheduler_state(scheduler),
    }


def validate_manifest(
    manifest: Dict[str, object], grammar_crc: int, graph_crc: int
) -> None:
    """Refuse to resume a checkpoint belonging to a different run."""
    if manifest["grammar_crc"] != grammar_crc:
        raise CheckpointError(
            "checkpoint was written by a different grammar"
            f" (manifest crc {manifest['grammar_crc']:#x},"
            f" current {grammar_crc:#x})"
        )
    if manifest["graph_crc"] != graph_crc:
        raise CheckpointError(
            "checkpoint was written for a different input graph"
            f" (manifest crc {manifest['graph_crc']:#x},"
            f" current {graph_crc:#x})"
        )


def restore_partition_set(
    manifest: Dict[str, object],
    store: PartitionStore,
    journal: RunJournal,
    memory_budget: Optional[int] = None,
) -> PartitionSet:
    """Rebuild an all-evicted :class:`PartitionSet` from a manifest.

    Also sweeps partition files the manifest does not reference — the
    garbage a crash between ``flush_dirty`` and the manifest commit (or
    between commit and purge) leaves behind.
    """
    workdir = store.workdir
    if workdir is None:
        raise CheckpointError("cannot restore into an in-memory store")
    vit = VertexIntervalTable(
        [Interval(int(lo), int(hi)) for lo, hi in manifest["vit"]]
    )
    ddm = ddm_from_state(manifest["ddm"])
    entries = []
    referenced = set()
    for slot in manifest["slots"]:
        path = workdir / slot["file"]
        if not path.exists():
            raise CheckpointError(
                f"manifest references missing partition file {path}"
            )
        referenced.add(path.name)
        entries.append((path, int(slot["edges"]), int(slot["nbytes"])))
    swept = 0
    for orphan in workdir.glob("partition-*.gp"):
        if orphan.name not in referenced:
            orphan.unlink(missing_ok=True)
            swept += 1
    if swept:
        journal.append({"event": "swept", "files": swept})
    out_degrees, in_degrees = journal.load_degrees()
    return PartitionSet.from_disk(
        vit,
        ddm,
        entries,
        store,
        label_names=tuple(manifest["label_names"]),
        out_degrees=out_degrees,
        in_degrees=in_degrees,
        memory_budget=memory_budget,
    )
