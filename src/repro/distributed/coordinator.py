"""The lease coordinator: scheduler, DDM, and checkpoints in one place.

The coordinator owns everything stateful about a distributed closure —
the :class:`~repro.engine.scheduler.Scheduler`, the DDM, the partition
set, and the checkpoint manifest — and shares nothing with its workers
but the ``GRSPART2`` partition files in the workdir.  Work moves as
**pair leases** over a pull model: a worker asks for work, the
coordinator flushes the chosen pair to disk and answers with file names,
content fingerprints, a fresh idempotency token, and the lease epoch;
the worker joins the pair locally and ships back only the new-edge delta
as packed ``(src, key)`` arrays.

Applying a delta reproduces the serial superstep exactly: the base pair
is re-read from the coordinator's own resident set, and the delta is
deduplicated, filtered against the base (the edge-level idempotency
backstop) and merged in with the superstep's own pair-set algebra
(:mod:`repro.engine.pairset`), scattered back into the two partitions,
and recorded in the DDM via the same ``record_added_edges`` bulk path
the serial engine uses.  Because the superstep fixpoint is confluent,
the final closure is byte-identical to the serial schedule's for any
worker count; with one worker and one in-flight lease the *schedule
itself* is the serial schedule.

Fault model (the failure matrix lives in DESIGN.md §16):

* **worker death** — the serving connection drops; every lease issued on
  it is re-queued immediately with a bumped epoch.
* **deadline expiry** — leases not completed or heartbeat-renewed within
  ``lease_timeout`` are re-queued at the next lease request.
* **duplicate delivery** — a completion whose token was already applied
  is suppressed and counted, never re-applied.
* **living dead** — a completion under a superseded token/epoch (its
  lease was re-issued) is rejected and counted.

Every transition lands in :class:`~repro.engine.stats.EngineStats`
counters so the at-most-once property is directly assertable.
"""

from __future__ import annotations

import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.distributed.messages import (
    Lease,
    LeasePartition,
    decode_array,
    grammar_payload,
    join_delta_chunks,
    partition_fingerprint,
)
from repro.engine.join import CsrView
from repro.engine.pairset import fold_raw_pairs
from repro.engine.parallel import JoinTelemetry, expand_view
from repro.engine.scheduler import pair_members
from repro.engine.stats import SuperstepRecord
from repro.service.protocol import decode_message, encode_message, error_response
from repro.util.timing import Stopwatch

#: How long a worker should sleep before re-requesting a lease when all
#: remaining pairs overlap in-flight work.
WAIT_RETRY_SECONDS = 0.02


@dataclass
class _LeaseState:
    """Coordinator-side bookkeeping for one outstanding lease."""

    lease: Lease
    worker: str
    conn_id: int
    deadline: float  # monotonic reissue deadline
    reissues: int  # how many earlier issues of this pair were lost
    issued_at: float = 0.0
    chunks: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


class DistributedCoordinator:
    """Serve pair leases for one opened :class:`ClosureSession`.

    The session must be opened (partitions ingested or restored) and
    disk-backed; the coordinator drives its superstep loop by applying
    worker deltas instead of calling ``session.step()``.  All shared
    state is guarded by one lock; delta application is serialized under
    it, which is also what keeps the one-worker schedule exactly serial.
    """

    def __init__(
        self,
        session,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 30.0,
        max_inflight: Optional[int] = None,
        worker_backend: Optional[str] = None,
        worker_threads: int = 1,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if session.pset is None or not session.pset.store.disk_backed:
            raise ValueError(
                "the coordinator needs an opened, disk-backed session: "
                "workers share only the workdir's partition files"
            )
        self.session = session
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.max_inflight = max_inflight
        #: None: each worker takes the engine default (make_backend).
        self.worker_backend = worker_backend
        self.worker_threads = max(1, int(worker_threads))
        self.failure: Optional[BaseException] = None

        self._lock = threading.RLock()
        self._inflight: Dict[str, _LeaseState] = {}
        self._busy: Set[int] = set()
        self._applied_tokens: Set[str] = set()
        self._retired_tokens: Set[str] = set()
        self._pair_epochs: Dict[Tuple[int, int], int] = {}
        self._workers_seen: Set[str] = set()
        self._conn_leases: Dict[int, Set[str]] = {}
        self._conn_socks: Dict[int, socket.socket] = {}
        self._done = False
        self._done_at: Optional[float] = None
        self._done_sent: Set[str] = set()
        self._next_conn_id = 0
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._stopping = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DistributedCoordinator":
        """Bind, listen, and serve connections on background threads."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(64)
        self.port = server.getsockname()[1]
        self._server = server
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="lease-coordinator", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the listener, and join serving threads."""
        self._shutdown_lease_plane()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        for thread in self._conn_threads:
            thread.join(timeout=5.0)
        self._conn_threads = []

    def _shutdown_lease_plane(self) -> None:
        """Close the listener and every live connection, refusing new work.

        Also the crash path: after a failure inside delta application the
        listener must actually close — a half-dead coordinator that still
        accepts TCP connections but never serves them would park every
        reconnecting worker in its backlog until the client times out.
        """
        self._stopping.set()
        server, self._server = self._server, None
        if server is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so stop() need not wait out a join.
            try:
                server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                server.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conn_socks.values())
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "DistributedCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def finished(self) -> bool:
        """True once the scheduler reported the fixed point to a worker.

        The authoritative test is the one the lease handler runs —
        ``choose_pair`` returning None with nothing in flight — and that
        test may mutate scheduler state (round-robin cursors), so the
        handler records the verdict here instead of re-deriving it.
        """
        with self._lock:
            return self._done

    def drained(self, grace: Optional[float] = None) -> bool:
        """True once every known worker has heard ``done`` (or gave up).

        ``finished()`` flips on the *first* worker's final lease poll;
        tearing the listener down at that instant races the other
        workers' in-flight polls into connection-refused tracebacks.  A
        cross-process coordinator should instead linger until each
        worker that said hello has been answered ``done`` — or until
        ``grace`` seconds (default ``lease_timeout``) pass after the
        fixpoint, covering workers that died and will never poll again.
        """
        with self._lock:
            if not self._done:
                return False
            if self._workers_seen <= self._done_sent:
                return True
            if self._done_at is None:
                return False
            limit = self.lease_timeout if grace is None else grace
            return time.monotonic() - self._done_at > limit

    # ------------------------------------------------------------------
    # the accept/serve loop
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        server = self._server
        while not self._stopping.is_set() and server is not None:
            try:
                conn, _ = server.accept()
            except OSError:
                break  # listener closed by stop()
            with self._lock:
                conn_id = self._next_conn_id
                self._next_conn_id += 1
                self._conn_leases[conn_id] = set()
                self._conn_socks[conn_id] = conn
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, conn_id),
                name=f"lease-conn-{conn_id}",
                daemon=True,
            )
            thread.start()
            self._conn_threads.append(thread)

    def _serve_connection(self, conn: socket.socket, conn_id: int) -> None:
        fh = conn.makefile("rwb")
        try:
            while not self._stopping.is_set():
                line = fh.readline()
                if not line:
                    break  # EOF: the worker went away
                try:
                    message = decode_message(line)
                    response = self._handle(message, conn_id)
                except BaseException as exc:  # noqa: BLE001 — see below
                    # InjectedCrash (a BaseException) and real apply
                    # failures must reach the engine's caller, not die
                    # with this serving thread: record the first one and
                    # shut the lease plane down.
                    with self._lock:
                        if self.failure is None:
                            self.failure = exc
                    self._shutdown_lease_plane()
                    break
                fh.write(encode_message(response))
                fh.flush()
        except OSError:
            pass  # connection reset mid-frame: same as EOF
        finally:
            try:
                fh.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
            self._connection_lost(conn_id)

    def _connection_lost(self, conn_id: int) -> None:
        """Re-queue every live lease the dropped connection was holding."""
        with self._lock:
            self._conn_socks.pop(conn_id, None)
            tokens = self._conn_leases.pop(conn_id, set())
            live = [t for t in tokens if t in self._inflight]
            if not live:
                return
            self.session.stats.add_counter("worker_deaths")
            for token in live:
                self._requeue(token)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def _handle(self, message: Dict[str, Any], conn_id: int) -> Dict[str, Any]:
        op = message.get("op")
        if op == "hello":
            return self._handle_hello(message)
        if op == "lease":
            return self._handle_lease(message, conn_id)
        if op == "delta":
            return self._handle_delta(message)
        if op == "complete":
            return self._handle_complete(message)
        if op == "heartbeat":
            return self._handle_heartbeat(message)
        if op == "release":
            return self._handle_release(message)
        if op == "status":
            return self._handle_status()
        return error_response(f"unknown op {op!r}")

    def _handle_hello(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = str(message.get("worker", "worker"))
        stats = self.session.stats
        with self._lock:
            if worker not in self._workers_seen:
                self._workers_seen.add(worker)
                stats.add_counter("distributed_workers")
        return {
            "ok": True,
            "grammar": grammar_payload(self.session.engine.grammar),
            "backend": self.worker_backend,
            "num_threads": self.worker_threads,
            # Leases are pairs: the paper's two-partition limit.
            "mid_limit": self.session.engine.mid_superstep_limit(),
            "heartbeat_interval": self.lease_timeout / 3.0,
        }

    def _handle_lease(
        self, message: Dict[str, Any], conn_id: int
    ) -> Dict[str, Any]:
        worker = str(message.get("worker", "worker"))
        session = self.session
        with self._lock:
            self._reap_expired()
            pset = session.pset
            if self.max_inflight is not None and (
                len(self._inflight) >= self.max_inflight
            ):
                return {"ok": True, "status": "wait", "retry_after": WAIT_RETRY_SECONDS}
            pair = session.scheduler.choose_pair(
                pset.ddm,
                pset.scheduling_resident_pids(),
                exclude_pids=tuple(self._busy),
            )
            if pair is None:
                if self._inflight:
                    return {
                        "ok": True,
                        "status": "wait",
                        "retry_after": WAIT_RETRY_SECONDS,
                    }
                self._done = True
                if self._done_at is None:
                    self._done_at = time.monotonic()
                self._done_sent.add(worker)
                return {"ok": True, "status": "done"}
            if len(session.stats.supersteps) >= session.engine.max_supersteps:
                raise RuntimeError(
                    f"exceeded max_supersteps={session.engine.max_supersteps}; "
                    "the computation may be diverging"
                )
            lease = self._issue(pair, worker, conn_id)
            return {"ok": True, "status": "lease", "lease": lease.to_payload()}

    def _issue(self, pair: Tuple[int, int], worker: str, conn_id: int) -> Lease:
        """Build and register a lease for ``pair`` (lock held)."""
        session = self.session
        pset = session.pset
        p, q = min(pair), max(pair)
        loaded = pair_members(pair)
        # Leases reference disk content: make the members' files current.
        pset.flush_dirty()
        parts: List[LeasePartition] = []
        for pid in loaded:
            slot = pset.slot_state(pid)
            path = slot["path"]
            if path is None:
                raise RuntimeError(f"partition {pid} has no disk copy to lease")
            interval = pset.vit.interval(pid)
            parts.append(
                LeasePartition(
                    pid=pid,
                    path=Path(path).name,
                    fingerprint=partition_fingerprint(path),
                    edges=int(slot["edges"]),
                    lo=int(interval.lo),
                    hi=int(interval.hi),
                )
            )
        epoch = self._pair_epochs.get((p, q), 0) + 1
        lease = Lease(
            lease_id=uuid.uuid4().hex,
            epoch=epoch,
            pair=(p, q),
            partitions=tuple(parts),
            deadline_seconds=self.lease_timeout,
        )
        state = _LeaseState(
            lease=lease,
            worker=worker,
            conn_id=conn_id,
            deadline=time.monotonic() + self.lease_timeout,
            reissues=epoch - 1,
            issued_at=time.monotonic(),
        )
        self._inflight[lease.lease_id] = state
        self._busy.update(loaded)
        self._conn_leases.setdefault(conn_id, set()).add(lease.lease_id)
        session.stats.add_counter("leases_issued")
        return lease

    def _handle_delta(self, message: Dict[str, Any]) -> Dict[str, Any]:
        token = str(message.get("lease_id", ""))
        with self._lock:
            state = self._inflight.get(token)
            if state is None or state.lease.epoch != int(message.get("epoch", -1)):
                self.session.stats.add_counter("stale_deltas_rejected")
                return {"ok": True, "status": "stale"}
            src = decode_array(str(message.get("src", "")))
            keys = decode_array(str(message.get("keys", "")))
            if len(src) != len(keys):
                return error_response(
                    f"delta chunk arrays disagree: {len(src)} vs {len(keys)}"
                )
            state.chunks.append((src, keys))
            return {"ok": True, "status": "ack", "seq": len(state.chunks)}

    def _handle_complete(self, message: Dict[str, Any]) -> Dict[str, Any]:
        token = str(message.get("lease_id", ""))
        epoch = int(message.get("epoch", -1))
        stats = self.session.stats
        with self._lock:
            if token in self._applied_tokens:
                # Duplicate delivery (a retried completion): the delta is
                # already merged — acknowledge without re-applying.
                stats.add_counter("duplicate_deltas_suppressed")
                return {"ok": True, "status": "duplicate"}
            state = self._inflight.get(token)
            if state is None or state.lease.epoch != epoch:
                # A superseded holder reporting in after its lease was
                # re-issued (or never existed): reject, never merge.
                stats.add_counter("stale_deltas_rejected")
                return {"ok": True, "status": "stale"}
            expected = int(message.get("chunks", 0))
            if expected != len(state.chunks):
                return error_response(
                    f"lease {token}: got {len(state.chunks)} delta chunks, "
                    f"completion claims {expected}"
                )
            added_src, added_keys = join_delta_chunks(state.chunks)
            edges_added = self._apply(
                state,
                added_src,
                added_keys,
                iterations=int(message.get("iterations", 0)),
                completed=bool(message.get("completed", True)),
                compute_seconds=float(message.get("compute_seconds", 0.0)),
            )
            return {"ok": True, "status": "applied", "edges_added": edges_added}

    def _handle_heartbeat(self, message: Dict[str, Any]) -> Dict[str, Any]:
        token = str(message.get("lease_id", ""))
        with self._lock:
            state = self._inflight.get(token)
            self.session.stats.add_counter("heartbeats_received")
            if state is None:
                return {"ok": True, "status": "unknown"}
            state.deadline = time.monotonic() + self.lease_timeout
            return {"ok": True, "status": "renewed"}

    def _handle_release(self, message: Dict[str, Any]) -> Dict[str, Any]:
        token = str(message.get("lease_id", ""))
        with self._lock:
            if token not in self._inflight:
                return {"ok": True, "status": "unknown"}
            self._requeue(token)
            return {"ok": True, "status": "released"}

    def _handle_status(self) -> Dict[str, Any]:
        stats = self.session.stats
        with self._lock:
            return {
                "ok": True,
                "finished": self.finished(),
                "inflight": len(self._inflight),
                "supersteps": stats.num_supersteps,
                "distributed": stats.distributed_summary(),
            }

    # ------------------------------------------------------------------
    # lease bookkeeping
    # ------------------------------------------------------------------
    def _reap_expired(self) -> None:
        """Re-queue every lease past its deadline (lock held)."""
        now = time.monotonic()
        expired = [
            token
            for token, state in self._inflight.items()
            if state.deadline < now
        ]
        for token in expired:
            self.session.stats.add_counter("leases_expired")
            self._requeue(token)

    def _requeue(self, token: str) -> None:
        """Forget an outstanding lease so its pair is schedulable again.

        The pair's DDM cells were never synced (only a completed apply
        syncs them), so dropping the lease *is* the re-queue; the next
        lease request may pick the pair up under a bumped epoch.  The
        retired token keeps late completions recognizably stale.
        """
        state = self._inflight.pop(token, None)
        if state is None:
            return
        self._retired_tokens.add(token)
        p, q = state.lease.pair
        self._busy.discard(p)
        self._busy.discard(q)
        self._pair_epochs[(p, q)] = state.lease.epoch
        self.session.stats.add_counter("leases_reissued")

    def _shift_pids(self, split_pid: int) -> None:
        """Renumber lease state after ``split_pid`` split (lock held).

        ``PartitionSet.split`` inserts the right half at ``pid + 1``,
        shifting every higher id up by one.  In-flight leases are always
        disjoint from the pair being applied (the only place splits
        happen), so no outstanding lease references ``split_pid`` itself
        — members above it just slide up.  Vertex intervals and file
        contents are untouched by renumbering, so the leases workers
        hold remain valid; only the coordinator's pid bookkeeping moves.
        """

        def shift(pid: int) -> int:
            return pid + 1 if pid > split_pid else pid

        self._busy = {shift(pid) for pid in self._busy}
        self._pair_epochs = {
            (shift(p), shift(q)): epoch
            for (p, q), epoch in self._pair_epochs.items()
        }
        for state in self._inflight.values():
            p, q = state.lease.pair
            if p > split_pid or q > split_pid:
                lease = state.lease
                state.lease = Lease(
                    lease_id=lease.lease_id,
                    epoch=lease.epoch,
                    pair=(shift(p), shift(q)),
                    partitions=lease.partitions,
                    deadline_seconds=lease.deadline_seconds,
                )

    # ------------------------------------------------------------------
    # delta application: the distributed half of _run_one_superstep
    # ------------------------------------------------------------------
    def _apply(
        self,
        state: _LeaseState,
        added_src: np.ndarray,
        added_keys: np.ndarray,
        iterations: int,
        completed: bool,
        compute_seconds: float,
    ) -> int:
        """Merge one worker delta exactly as the serial superstep would.

        Called with the lock held; returns the number of edges actually
        merged.  The final pair content is reconstructed as
        ``base ∪ delta`` — ``run_superstep`` returns its added arrays as
        the disjoint complement of the base in the final set, so the
        merge of the shipped delta with the coordinator's own base *is*
        the worker's final edge set, in the same canonical lexsorted
        order the superstep's own merge produces.
        """
        from repro.engine.session import _combine_views, record_added_edges

        session = self.session
        pset, stats = session.pset, session.stats
        lease = state.lease
        token = lease.lease_id
        p, q = lease.pair
        loaded = pair_members(lease.pair)
        watch = Stopwatch().start()
        with pset.pinned(*loaded):
            if pset.memory_budget is None:
                pset.evict_all_except(loaded)
            parts = [pset.acquire(pid) for pid in loaded]
            base = _combine_views(parts)
            base_src, base_keys = expand_view(base)

            with stats.timers.phase("compute"):
                # Edge-level idempotency backstop: anything already in
                # the base (impossible under at-most-once delivery,
                # cheap to enforce) is dropped before the merge so the
                # DDM sees exactly the genuinely new edges.
                (final_src, final_keys), (delta_src, delta_keys) = (
                    fold_raw_pairs(
                        (base_src, base_keys), (added_src, added_keys)
                    )
                )

            for pid, part in zip(loaded, parts):
                lo = int(
                    np.searchsorted(final_src, part.interval.lo, side="left")
                )
                hi = int(
                    np.searchsorted(final_src, part.interval.hi, side="right")
                )
                view = CsrView.from_flat(final_src[lo:hi], final_keys[lo:hi])
                part.replace_csr(view.vertices, view.indptr, view.keys)
                pset.note_mutated(pid)
                pset.ddm.set_exact_row(pid, part.destination_counts(pset.vit))

            record_added_edges(pset, delta_src, delta_keys)
            if completed:
                pset.ddm.mark_synced(loaded)

            resident_edges = sum(pset.edge_count(pid) for pid in loaded)
            stats.max_counter("peak_resident_edges", resident_edges)

            # Settle the lease ledger BEFORE repartitioning: splits shift
            # partition ids (including this lease's own members), and the
            # busy set must be released under the pre-split ids or the
            # shifted survivors leak as permanently-excluded pids.  It
            # also precedes the checkpoint commit so a crash inside the
            # commit cannot leave the lease re-appliable.
            self._applied_tokens.add(token)
            self._inflight.pop(token, None)
            self._busy.discard(p)
            self._busy.discard(q)
            self._pair_epochs[(p, q)] = lease.epoch
            self._conn_leases.get(state.conn_id, set()).discard(token)
            stats.add_counter("leases_completed")
            stats.add_counter("delta_edges_applied", len(delta_src))

            self._maybe_repartition(loaded)
        pset.enforce_budget()
        apply_seconds = watch.stop()

        telemetry = JoinTelemetry(
            backend="distributed",
            pool_seconds=compute_seconds,
            serial_estimate_seconds=compute_seconds,
            lease_epoch=lease.epoch,
            lease_reissues=state.reissues,
            delta_edges=len(delta_src),
        )
        stats.record_superstep(
            SuperstepRecord(
                pair=loaded,
                iterations=iterations,
                edges_added=len(delta_src),
                seconds=compute_seconds if compute_seconds > 0 else apply_seconds,
                completed=completed,
                num_partitions_after=pset.num_partitions,
                backend=telemetry.backend,
                pool_seconds=telemetry.pool_seconds,
                serial_estimate_seconds=telemetry.serial_estimate_seconds,
                worker=state.worker,
                lease_epoch=lease.epoch,
                lease_reissues=state.reissues,
                delta_edges=len(delta_src),
            )
        )

        session.superstep_index += 1
        if session.journal is not None:
            session._commit_checkpoint()
        return int(len(delta_src))

    def _maybe_repartition(self, loaded: Tuple[int, ...]) -> None:
        """Split outgrown loaded partitions, renumbering lease state."""
        session = self.session
        engine, pset, stats = session.engine, session.pset, session.stats
        if engine.max_edges_per_partition is None:
            return
        threshold = int(
            engine.max_edges_per_partition * engine.repartition_growth
        )
        for pid in sorted(loaded, reverse=True):
            while (
                pset.edge_count(pid) > threshold
                and len(pset.vit.interval(pid)) > 1
            ):
                pset.split(pid)
                stats.add_counter("repartition_count")
                self._shift_pids(pid)


def run_distributed(session) -> None:
    """Drive an opened session to its fixed point through lease workers.

    The engine-integrated form of the coordinator: in-process worker
    threads (``engine.num_threads`` of them, or ``workers`` from the
    engine's ``distributed`` options) pull leases over real sockets from
    a coordinator wrapping ``session``.  Workers that die (injected
    faults) are replaced until the coordinator reports the fixed point,
    so a run with a seeded worker-kill plan still completes — via lease
    reissue, never by re-applying a delta.
    """
    from repro.distributed.worker import DistributedWorker, WorkerKilled
    from repro.service.client import ServiceError

    engine = session.engine
    options = dict(getattr(engine, "distributed", None) or {})
    num_workers = max(1, int(options.get("workers", engine.num_threads) or 1))
    lease_timeout = float(options.get("lease_timeout", 30.0))
    max_inflight = options.get("max_inflight")
    worker_backend = options.get("worker_backend")
    worker_threads = int(options.get("worker_threads", 1))
    worker_budget = options.get("worker_memory_budget", engine.memory_budget)
    plan = engine.fault_injector.plan if engine.fault_injector else None

    coordinator = DistributedCoordinator(
        session,
        lease_timeout=lease_timeout,
        max_inflight=max_inflight,
        worker_backend=worker_backend,
        worker_threads=worker_threads,
    )
    coordinator.start()
    try:
        generation = 0
        while True:
            threads = []
            for i in range(num_workers):
                # The seeded kill plan rides on worker 0 of the first
                # generation only — one deterministic death, as the
                # REPRO_FAULT_KILL_WORKER contract specifies.
                worker_plan = plan if (i == 0 and generation == 0) else None
                worker = DistributedWorker(
                    "127.0.0.1",
                    coordinator.port,
                    workdir=engine.workdir,
                    worker_id=f"w{generation}-{i}",
                    memory_budget=worker_budget,
                    fault_plan=worker_plan,
                )
                thread = threading.Thread(
                    target=_run_worker_quietly,
                    args=(worker,),
                    name=f"lease-worker-{generation}-{i}",
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
            if (
                coordinator.failure is not None
                or coordinator.finished()
                or coordinator._stopping.is_set()
            ):
                break
            generation += 1
            if generation > 16:
                raise RuntimeError(
                    "distributed workers kept dying without reaching the "
                    "fixed point; giving up after 16 replacement rounds"
                )
            num_workers = 1  # a single replacement drains reissued leases
    finally:
        coordinator.stop()
    if coordinator.failure is not None:
        raise coordinator.failure
    # Imported for the quiet-runner's except clause; referenced here so
    # linters see the imports are intentional.
    del WorkerKilled, ServiceError


def _run_worker_quietly(worker) -> None:
    """Run one in-process worker, absorbing expected terminal states."""
    from repro.distributed.worker import WorkerKilled
    from repro.service.client import ServiceError

    try:
        worker.run()
    except WorkerKilled:
        pass  # simulated SIGKILL: the coordinator reissues its lease
    except ServiceError:
        pass  # coordinator gone (stopped or crashed): nothing to do here
