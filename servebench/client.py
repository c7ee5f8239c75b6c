"""The benchmark client: keep-alive HTTP over at most two connections.

One thread, non-blocking reads through ``selectors``, requests encoded
from pre-built body templates.  Two phase shapes share one loop:

- **closed loop** — each connection sends its next request as soon as
  the previous answer arrived; the phase measures throughput;
- **open loop** — requests fall due on a fixed schedule (``rate`` per
  second, evenly spaced) whether or not the server kept up.  A due
  request waits for a free connection, and its latency runs from its due
  time, so a stall is charged to every request queued behind it.  The
  generator's own lateness — how long after both its due time and a free
  connection it was actually sent — is recorded as ``lag``.

Every answer goes through the source's ``acknowledge`` check; a wrong
answer, an unexpected status, a reset or a timeout is a failure.  A
source whose answers do not depend on arrival order (``deferred``) is
checked when the phase ends, so parsing large bodies never delays a send.
``/metrics`` is scraped once a second on whichever connection is free.
"""

from __future__ import annotations

import random
import selectors
import socket
import time
from collections import deque
from time import perf_counter
from typing import Any

from workloads import SCRAPE, Template

SCRAPE_INTERVAL_S = 1.0
#: A request unanswered this long fails the run.
REQUEST_TIMEOUT_S = 20.0


class Conn:
    __slots__ = ("sock", "buf", "body_at", "need", "status", "template", "rid", "due", "sent", "free_at")

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = bytearray()
        self.body_at = 0
        self.need = 0
        self.status = 0
        self.template: Template | None = None
        self.rid = 0
        self.due = 0.0
        self.sent = 0.0
        self.free_at = 0.0


def encode(template: Template, rid: int) -> bytes:
    if template is SCRAPE:
        return b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n"
    body = b'{"rid":%d,%s' % (rid, template.rest)
    return b"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s" % (
        template.path,
        len(body),
        body,
    )


class PhaseResult:
    """What one phase measured."""

    def __init__(self) -> None:
        self.start = 0.0
        self.end = 0.0
        #: kind -> latencies in seconds (open loop: from due time), and
        #: the due times they belong to.
        self.latency: dict[str, list[float]] = {}
        self.due: dict[str, list[float]] = {}
        self.ok: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        #: Arrival times of successful non-scrape answers before ``end``.
        self.done: list[float] = []
        self.lag: list[float] = []
        self.cpu_s = 0.0
        #: The server's CPU seconds over the phase, when measured.
        self.server_cpu_s = 0.0
        #: (template, status, body) of answers whose check was deferred.
        self.unchecked: list[tuple[Template, int, bytes]] = []
        #: (rid, kind, sent, done) per answer, when recording.
        self.requests: list[tuple[int, str, float, float]] = []

    @property
    def attempted(self) -> int:
        return sum(self.ok.values()) + sum(self.failed.values())

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    @property
    def completed(self) -> int:
        return len(self.done)

    @property
    def cpu_share(self) -> float:
        """Client CPU time over wall time (1.0 = one core busy)."""
        return self.cpu_s / (self.end - self.start)


class Loader:
    """Drives one server over ``connections`` keep-alive connections."""

    def __init__(self, port: int, source: Any, seed: int, connections: int = 2):
        self.source = source
        self.rng = random.Random(seed ^ 0x5EED)
        self.conns = [Conn(port) for _ in range(connections)]
        # select(2) takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make the open loop late by up to 1 ms.
        self.sel = selectors.SelectSelector()
        for conn in self.conns:
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        self.rid = 0
        self.next_scrape = perf_counter() + SCRAPE_INTERVAL_S
        self.record = False

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            conn.sock.close()

    # -- one request ---------------------------------------------------

    def _send(self, conn: Conn, template: Template, due: float, now: float) -> None:
        self.rid += 1
        conn.template = template
        conn.rid = self.rid
        conn.due = due
        conn.sent = now
        conn.sock.sendall(encode(template, self.rid))

    def _next_template(self, now: float) -> Template:
        if now >= self.next_scrape:
            self.next_scrape = now + SCRAPE_INTERVAL_S
            return SCRAPE
        return self.source.next_request(self.rng)

    def _receive(self, conn: Conn, res: PhaseResult, timed: bool) -> bool:
        """Read what arrived; True once the answer is complete."""
        data = conn.sock.recv(1 << 18)
        if not data:
            raise ConnectionError("server closed the connection")
        buf = conn.buf
        buf += data
        if not conn.need:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return False
            head = bytes(buf[:end]).lower()
            conn.status = int(head[9:12])
            at = head.find(b"\r\ncontent-length:")
            length = 0
            if at >= 0:
                stop = head.find(b"\r\n", at + 2)
                length = int(head[at + 17 : stop if stop >= 0 else len(head)])
            conn.body_at = end + 4
            conn.need = end + 4 + length
        if len(buf) < conn.need:
            return False
        done = perf_counter()
        body = bytes(buf[conn.body_at : conn.need])
        del buf[: conn.need]
        conn.need = 0
        template = conn.template
        conn.template = None
        conn.free_at = done
        kind = template.kind
        if self.source.deferred:
            res.unchecked.append((template, conn.status, body))
            ok = True
        else:
            ok = self.source.acknowledge(template, conn.status, body)
        counts = res.ok if ok else res.failed
        counts[kind] = counts.get(kind, 0) + 1
        if ok and timed:
            res.latency.setdefault(kind, []).append(done - conn.due)
            res.due.setdefault(kind, []).append(conn.due)
            if kind != "scrape" and done <= res.end:
                res.done.append(done)
            if self.record:
                res.requests.append((conn.rid, kind, conn.sent, done))
        return True

    def _wait(self, res: PhaseResult, timeout: float, timed: bool) -> list[Conn]:
        """Conns whose answers completed within ``timeout``."""
        freed = []
        for key, _ in self.sel.select(timeout):
            conn = key.data
            if conn.template is not None and self._receive(conn, res, timed):
                freed.append(conn)
        if not freed:
            now = perf_counter()
            for conn in self.conns:
                if conn.template is not None and now - conn.sent > REQUEST_TIMEOUT_S:
                    raise TimeoutError(f"no answer to request {conn.rid} in {REQUEST_TIMEOUT_S}s")
        return freed

    def drain(self, res: PhaseResult, timed: bool = True) -> None:
        """Wait for every outstanding answer, then check deferred ones."""
        while any(c.template is not None for c in self.conns):
            self._wait(res, 0.1, timed)
        for template, status, body in res.unchecked:
            if not self.source.acknowledge(template, status, body):
                kind = template.kind
                res.ok[kind] -= 1
                res.failed[kind] = res.failed.get(kind, 0) + 1
        res.unchecked.clear()

    # -- phases ----------------------------------------------------------

    def closed_loop(self, seconds: float, timed: bool = True) -> PhaseResult:
        """Send back-to-back on every connection for ``seconds``."""
        res = PhaseResult()
        cpu0 = time.process_time()
        res.start = perf_counter()
        res.end = res.start + seconds
        free = [c for c in self.conns if c.template is None]
        while True:
            now = perf_counter()
            if now >= res.end:
                break
            for conn in free:
                self._send(conn, self._next_template(now), now, now)
            free = self._wait(res, res.end - now, timed)
        res.cpu_s = time.process_time() - cpu0
        self.drain(res, timed)
        return res

    def open_loop(self, seconds: float, rate: float) -> PhaseResult:
        """Send ``rate`` requests per second on a fixed schedule."""
        res = PhaseResult()
        interval = 1.0 / rate
        # Due times are counted from the start, not accumulated, so the
        # phase sends exactly this many requests whatever float rounding
        # does to the sum of intervals.
        total = round(seconds * rate)
        issued = 0
        cpu0 = time.process_time()
        res.start = perf_counter()
        res.end = res.start + seconds
        for conn in self.conns:
            conn.free_at = res.start
        self.next_scrape = max(self.next_scrape, res.start)
        next_due = res.start
        backlog: deque[tuple[float, Template | None]] = deque()
        free = [c for c in self.conns if c.template is None]
        while True:
            now = perf_counter()
            if now >= self.next_scrape and now < res.end:
                backlog.append((self.next_scrape, SCRAPE))
                self.next_scrape += SCRAPE_INTERVAL_S
            while next_due <= now and issued < total:
                backlog.append((next_due, None))
                issued += 1
                next_due = res.start + issued * interval
            while backlog and free:
                conn = free.pop()
                due, template = backlog.popleft()
                if template is None:
                    template = self.source.next_request(self.rng)
                sent = perf_counter()
                res.lag.append(sent - max(due, conn.free_at))
                self._send(conn, template, due, sent)
            if issued == total and not backlog:
                break
            timeout = 0.0 if (backlog and free) else max(0.0, min(next_due, self.next_scrape) - perf_counter())
            free += self._wait(res, timeout, True)
        res.cpu_s = time.process_time() - cpu0
        self.drain(res)
        return res

    def send_and_leave(self, templates: list[Template]) -> None:
        """Send one request per connection and return without waiting
        for the answers."""
        now = perf_counter()
        for conn, template in zip(self.conns, templates):
            self._send(conn, template, now, now)
