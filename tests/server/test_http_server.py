"""End-to-end tests over a real socket: ServerHandle + WriteBatcher.

The contract lives in :mod:`tests.server.test_app_contract`; this file
only pins what the transport adds — HTTP framing, keep-alive, the
malformed-request guard, and group-commit coalescing of concurrent
write requests through the batcher.
"""

import http.client
import json
import logging
import socket
import threading

import pytest

from repro.concurrency import build_service, insert_op
from repro.server.app import ServingApp
from repro.server.batch import WriteBatcher
from repro.server.http import ServerHandle


@pytest.fixture()
def served():
    """A running server (with batcher) plus its app, torn down cleanly."""
    service, _ = build_service()
    batcher = WriteBatcher(service, max_batch=32)
    app = ServingApp(service, batcher=batcher)
    handle = ServerHandle(app).start()
    try:
        yield handle, app
    finally:
        handle.stop()
        batcher.close()
        service.detach()


class HeldServer:
    """A served batcher whose writer blocks in ``apply_ops`` until
    released; ``queued`` is released once per request the batcher
    accepts, so a test waits on events, never on sleeps."""

    timeout = 10.0

    def __init__(self):
        self.service, _ = build_service()
        self.entered = threading.Event()
        self.release = threading.Event()
        self.queued = threading.Semaphore(0)
        self.groups = []
        apply_ops = self.service.apply_ops

        def held(ops):
            self.groups.append(len(ops))
            self.entered.set()
            self.release.wait(self.timeout)
            return apply_ops(ops)

        self.service.apply_ops = held
        self.batcher = WriteBatcher(self.service)
        submit = self.batcher.submit

        def counted(ops):
            future = submit(ops)
            self.queued.release()
            return future

        self.batcher.submit = counted
        self.handle = ServerHandle(ServingApp(self.service, batcher=self.batcher))

    def hold(self):
        """Put the writer inside a first, directly submitted group."""
        self.batcher.submit([insert_op((0.5, 0.9), "held")])
        assert self.entered.wait(self.timeout)
        assert self.queued.acquire(timeout=self.timeout)

    def await_queued(self, n):
        for _ in range(n):
            assert self.queued.acquire(timeout=self.timeout)


@pytest.fixture()
def held_server():
    held = HeldServer()
    held.handle.start()
    try:
        yield held
    finally:
        held.release.set()
        held.handle.stop()
        held.batcher.close()


def request(handle, method, path, payload=None):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpRoundTrips:
    def test_insert_get_delete_over_the_wire(self, served):
        handle, _ = served
        status, payload = request(
            handle, "POST", "/v1/insert", {"point": [0.5, 0.5], "value": "v"}
        )
        assert (status, payload["lsn"]) == (201, 1)
        status, payload = request(
            handle, "POST", "/v1/get", {"point": [0.5, 0.5]}
        )
        assert (status, payload["value"]) == (200, "v")
        status, _ = request(handle, "POST", "/v1/delete", {"point": [0.5, 0.5]})
        assert status == 200
        status, _ = request(handle, "POST", "/v1/get", {"point": [0.5, 0.5]})
        assert status == 404

    def test_health_and_metrics_endpoints(self, served):
        handle, _ = served
        status, payload = request(handle, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=10
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain"
            )
            assert b"serve_health_requests" in response.read().replace(
                b".", b"_"
            )
        finally:
            conn.close()

    def test_keep_alive_reuses_one_connection(self, served):
        handle, _ = served
        conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=10
        )
        try:
            for i in range(5):
                conn.request(
                    "POST",
                    "/v1/insert",
                    body=json.dumps(
                        {"point": [i / 8 + 1 / 16, 0.5], "value": i}
                    ),
                )
                response = conn.getresponse()
                assert response.status == 201
                assert (
                    response.getheader("Connection") == "keep-alive"
                )
                response.read()
        finally:
            conn.close()
        status, payload = request(handle, "GET", "/stats")
        assert (status, payload["records"]) == (200, 5)

    def test_connection_close_is_honoured(self, served):
        handle, _ = served
        conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=10
        )
        try:
            conn.request(
                "GET", "/health", headers={"Connection": "close"}
            )
            response = conn.getresponse()
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            conn.close()


    def test_batched_write_failures_map_to_statuses(self, served, monkeypatch):
        """A write that fails inside the batcher's group, or is refused
        by the poisoned writer, still answers with its own status."""
        handle, app = served
        status, _ = request(handle, "POST", "/v1/insert", {"point": [0.5, 0.5]})
        assert status == 201
        status, payload = request(
            handle, "POST", "/v1/insert", {"point": [0.5, 0.5]}
        )
        assert (status, payload["kind"]) == (409, "DuplicateKeyError")
        inner = app.service.tree.store.inner
        original = inner.write

        def torn_write(page_id, page):
            original(page_id, page)
            raise OSError("disk went away")

        monkeypatch.setattr(inner, "write", torn_write)
        status, payload = request(
            handle, "POST", "/v1/insert", {"point": [0.25, 0.25]}
        )
        assert (status, payload["kind"]) == (500, "OSError")
        monkeypatch.undo()
        status, payload = request(
            handle, "POST", "/v1/delete", {"point": [0.5, 0.5]}
        )
        assert (status, payload["kind"]) == (503, "StorageError")
        errors = app.registry.counter("serve.insert.errors")
        assert errors.value == 2


class TestMalformedRequests:
    def test_garbage_request_line_gets_400(self, served):
        handle, _ = served
        with socket.create_connection(
            (handle.host, handle.port), timeout=10
        ) as sock:
            sock.sendall(b"NOT A VALID REQUEST\r\n\r\n")
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_is_rejected(self, served):
        handle, _ = served
        with socket.create_connection(
            (handle.host, handle.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/insert HTTP/1.1\r\n"
                b"Content-Length: 999999999999\r\n\r\n"
            )
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")


class TestBatcherCoalescing:
    def test_concurrent_writes_coalesce_into_group_commits(self, served):
        handle, app = served
        n_threads, per_thread = 8, 10
        errors = []

        def worker(tid):
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            try:
                for i in range(per_thread):
                    point = [
                        tid / 16 + 1 / 32,
                        i / 16 + 1 / 32,
                    ]
                    conn.request(
                        "POST",
                        "/v1/insert",
                        body=json.dumps({"point": point, "value": tid}),
                    )
                    response = conn.getresponse()
                    if response.status != 201:
                        errors.append((tid, i, response.status))
                    response.read()
            finally:
                conn.close()

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        stats = app.batcher.stats
        assert stats.requests == n_threads * per_thread
        assert stats.ops == n_threads * per_thread
        # Coalescing happened: fewer publications than requests (the
        # exact grouping is timing-dependent; any grouping at all means
        # at least one multi-request batch landed).
        assert stats.batches <= stats.requests
        assert stats.max_batch_seen >= 1
        # Every write is visible and the final LSN equals batch count.
        status, payload = request(handle, "GET", "/stats")
        assert payload["records"] == n_threads * per_thread
        assert payload["lsn"] == stats.batches
        # /stats surfaces the batcher block when one is attached.
        assert payload["batcher"]["requests"] == stats.requests

    def test_batch_endpoint_bypasses_the_batcher(self, served):
        handle, app = served
        before = app.batcher.stats.requests
        status, payload = request(
            handle,
            "POST",
            "/v1/batch",
            {
                "ops": [
                    {"op": "insert", "point": [0.25, 0.25], "value": 1},
                    {"op": "insert", "point": [0.75, 0.75], "value": 2},
                ]
            },
        )
        assert (status, payload["applied"]) == (200, 2)
        assert app.batcher.stats.requests == before

    def test_writes_in_flight_on_many_connections_commit_as_one_group(
        self, held_server
    ):
        """Every write in flight reaches the batcher, not only as many as
        an executor has threads: with the writer held, 40 connections'
        inserts queue up and commit together once it is released."""
        held, n_conns = held_server, 40
        statuses, lsns = [], []

        def writer(i):
            status, payload = request(
                held.handle,
                "POST",
                "/v1/insert",
                {"point": [(i + 0.5) / n_conns, 0.5]},
            )
            statuses.append(status)
            lsns.append(payload["lsn"])

        held.hold()
        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(n_conns)
        ]
        for thread in threads:
            thread.start()
        held.await_queued(n_conns)
        held.release.set()
        for thread in threads:
            thread.join(held.timeout)
            assert not thread.is_alive()
        assert statuses == [201] * n_conns
        assert lsns == [2] * n_conns
        assert held.groups == [1, n_conns]

    def test_write_cancelled_mid_commit_still_commits_cleanly(
        self, held_server, caplog
    ):
        """Stopping the server cancels a connection awaiting its write;
        the write still commits and resolving it logs no error."""
        held = held_server
        held.hold()
        body = json.dumps({"point": [0.1, 0.1]}).encode()
        with socket.create_connection(
            (held.handle.host, held.handle.port), timeout=held.timeout
        ) as conn:
            conn.sendall(
                b"POST /v1/insert HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            held.await_queued(1)
            with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
                held.handle.stop()
                held.release.set()
                held.batcher.close()
        assert held.service.lsn == 2
        assert held.service.snapshot().get((0.1, 0.1)) is None
        assert not [
            r for r in caplog.records if r.name == "concurrent.futures"
        ]
