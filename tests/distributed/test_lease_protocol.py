"""Protocol-level coordinator tests: driving the lease verbs by hand.

These bypass :class:`DistributedWorker` and speak raw JSON-lines to the
coordinator, so the at-most-once machinery — duplicate suppression,
stale rejection, deadline expiry, early release — is exercised verb by
verb with the counters asserted after each transition.
"""

import threading
import time

import pytest

from repro.distributed import DistributedCoordinator
from repro.distributed.messages import Lease, grammar_from_payload
from repro.engine.engine import GraspanEngine
from repro.grammar.builtin import reachability_grammar
from repro.graph import MemGraph
from repro.service.client import ServiceClient, ServiceError
from repro.util.retry import RetryPolicy


@pytest.fixture()
def harness(tmp_path):
    grammar = reachability_grammar()
    graph = MemGraph.from_edges(
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 0, 0)],
        label_names=["E"],
    )
    engine = GraspanEngine(
        grammar,
        max_edges_per_partition=2,
        workdir=tmp_path,
        parallel_backend="distributed",
    )
    session = engine.session(graph)
    session.open()
    coordinator = DistributedCoordinator(
        session, lease_timeout=30.0
    ).start()
    client = ServiceClient(
        "127.0.0.1", coordinator.port, retry=RetryPolicy(attempts=2)
    )
    try:
        yield coordinator, client, session
    finally:
        client.close()
        coordinator.stop()
        session.close()


def take_lease(client, worker="w0"):
    response = client.request({"op": "lease", "worker": worker})
    assert response["status"] == "lease"
    return Lease.from_payload(response["lease"])


def complete(client, lease, **overrides):
    payload = {
        "op": "complete",
        "lease_id": lease.lease_id,
        "epoch": lease.epoch,
        "chunks": 0,
        "iterations": 1,
        "completed": True,
        "compute_seconds": 0.0,
    }
    payload.update(overrides)
    return client.request(payload)


class TestHandshake:
    def test_hello_carries_faithful_grammar(self, harness):
        coordinator, client, session = harness
        response = client.request({"op": "hello", "worker": "w0"})
        assert response["ok"]
        restored = grammar_from_payload(response["grammar"])
        assert restored.names == session.engine.grammar.names
        assert restored.productions == session.engine.grammar.productions
        assert response["heartbeat_interval"] == pytest.approx(
            coordinator.lease_timeout / 3.0
        )
        assert session.stats.distributed_workers == 1

    def test_unknown_op_is_an_error(self, harness):
        _, client, _ = harness
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "frobnicate"})


class TestIdempotency:
    def test_duplicate_completion_suppressed(self, harness):
        _, client, session = harness
        lease = take_lease(client)
        assert complete(client, lease)["status"] == "applied"
        # The retried completion must acknowledge without re-applying.
        assert complete(client, lease)["status"] == "duplicate"
        assert session.stats.duplicate_deltas_suppressed == 1
        assert session.stats.leases_completed == 1
        assert len(session.stats.supersteps) == 1

    def test_released_lease_completion_is_stale(self, harness):
        _, client, session = harness
        lease = take_lease(client)
        assert (
            client.request(
                {"op": "release", "lease_id": lease.lease_id}
            )["status"]
            == "released"
        )
        assert complete(client, lease)["status"] == "stale"
        assert session.stats.stale_deltas_rejected == 1
        assert session.stats.leases_completed == 0
        assert len(session.stats.supersteps) == 0

    def test_reissued_pair_gets_fresh_token_and_epoch(self, harness):
        _, client, _ = harness
        first = take_lease(client)
        client.request({"op": "release", "lease_id": first.lease_id})
        second = take_lease(client)
        assert second.pair == first.pair
        assert second.lease_id != first.lease_id
        assert second.epoch == first.epoch + 1

    def test_chunk_count_mismatch_rejected(self, harness):
        _, client, _ = harness
        lease = take_lease(client)
        with pytest.raises(ServiceError, match="delta chunks"):
            complete(client, lease, chunks=3)

    def test_delta_for_unknown_lease_is_stale(self, harness):
        _, client, session = harness
        response = client.request(
            {"op": "delta", "lease_id": "no-such", "epoch": 1,
             "src": "", "keys": ""}
        )
        assert response["status"] == "stale"
        assert session.stats.stale_deltas_rejected == 1


class TestLiveness:
    def test_heartbeat_renews_known_lease(self, harness):
        _, client, _ = harness
        lease = take_lease(client)
        response = client.request(
            {"op": "heartbeat", "lease_id": lease.lease_id}
        )
        assert response["status"] == "renewed"
        assert (
            client.request({"op": "heartbeat", "lease_id": "bogus"})["status"]
            == "unknown"
        )

    def test_expired_lease_reissued_and_old_completion_stale(self, tmp_path):
        grammar = reachability_grammar()
        graph = MemGraph.from_edges(
            [(0, 1, 0), (1, 2, 0), (2, 0, 0)], label_names=["E"]
        )
        engine = GraspanEngine(
            grammar,
            max_edges_per_partition=2,
            workdir=tmp_path,
            parallel_backend="distributed",
        )
        session = engine.session(graph)
        session.open()
        coordinator = DistributedCoordinator(
            session, lease_timeout=0.2
        ).start()
        client = ServiceClient("127.0.0.1", coordinator.port)
        try:
            first = take_lease(client)
            time.sleep(0.4)  # past the deadline, no heartbeat
            second = take_lease(client, worker="w1")
            assert second.pair == first.pair
            assert second.epoch == first.epoch + 1
            assert session.stats.leases_expired == 1
            assert complete(client, first)["status"] == "stale"
            assert complete(client, second)["status"] == "applied"
        finally:
            client.close()
            coordinator.stop()
            session.close()


class TestBackpressure:
    def test_max_inflight_returns_wait(self, tmp_path):
        grammar = reachability_grammar()
        graph = MemGraph.from_edges(
            [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)], label_names=["E"]
        )
        engine = GraspanEngine(
            grammar,
            max_edges_per_partition=2,
            workdir=tmp_path,
            parallel_backend="distributed",
        )
        session = engine.session(graph)
        session.open()
        coordinator = DistributedCoordinator(
            session, lease_timeout=30.0, max_inflight=1
        ).start()
        client = ServiceClient("127.0.0.1", coordinator.port)
        try:
            lease = take_lease(client)
            waited = client.request({"op": "lease", "worker": "w1"})
            assert waited["status"] == "wait"
            assert waited["retry_after"] > 0
            complete(client, lease)
            # Backpressure lifted: the next request gets real work (or
            # the fixed point, if that completion settled the last pair)
            # instead of another "wait".
            assert client.request({"op": "lease"})["status"] in (
                "lease",
                "done",
            )
        finally:
            client.close()
            coordinator.stop()
            session.close()

    def test_status_reports_progress(self, harness):
        _, client, _ = harness
        lease = take_lease(client)
        status = client.request({"op": "status"})
        assert status["inflight"] == 1
        assert status["finished"] is False
        complete(client, lease)
        status = client.request({"op": "status"})
        assert status["inflight"] == 0
        assert status["supersteps"] == 1


class TestDrain:
    """Shutdown must wait until every known worker has heard ``done``."""

    def _drive_to_done(self, client, worker):
        for _ in range(10_000):
            response = client.request({"op": "lease", "worker": worker})
            if response["status"] == "done":
                return
            if response["status"] == "wait":
                time.sleep(response.get("retry_after", 0.01))
                continue
            complete(client, Lease.from_payload(response["lease"]),
                     worker=worker)
        raise AssertionError("closure never reached the fixed point")

    def test_drained_waits_for_every_worker(self, harness):
        coordinator, client, _ = harness
        client.request({"op": "hello", "worker": "w0"})
        client.request({"op": "hello", "worker": "w1"})
        self._drive_to_done(client, "w0")
        # w0 heard "done" but w1 is still out there polling: finished,
        # yet not drained — stopping now would slam the door on w1.
        assert coordinator.finished()
        assert not coordinator.drained()
        assert client.request({"op": "lease", "worker": "w1"})["status"] == "done"
        assert coordinator.drained()

    def test_drain_grace_covers_dead_workers(self, harness):
        coordinator, client, _ = harness
        client.request({"op": "hello", "worker": "w0"})
        client.request({"op": "hello", "worker": "ghost"})
        self._drive_to_done(client, "w0")
        # "ghost" died and will never poll again: the grace window, not
        # its missing "done", must release the coordinator.
        assert not coordinator.drained()
        time.sleep(0.05)
        assert coordinator.drained(grace=0.01)


class TestStop:
    def test_stop_on_idle_coordinator_is_prompt(self, harness):
        """Regression: closing the listener alone does not wake a thread
        blocked in ``accept()`` on Linux, so ``stop()`` used to wait out
        its whole 5 s join on the accept thread."""
        coordinator, client, _ = harness
        client.request({"op": "status"})  # one served connection, then idle
        started = time.monotonic()
        coordinator.stop()
        assert time.monotonic() - started < 1.0
        assert not [
            t
            for t in threading.enumerate()
            if t.name == "lease-coordinator" and t.is_alive()
        ]
