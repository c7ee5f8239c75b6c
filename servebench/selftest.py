"""Self-tests for the benchmark's own arithmetic.

``run.py`` runs the pure-arithmetic checks before every run and refuses
to measure if one fails.  ``python3 servebench/selftest.py`` runs them
all, including the due-time check, which times a real socket and so
retries once when a host stall fails it.

- the percentile rule: nearest rank, and a tail percentile is reported
  only with at least ten samples beyond it;
- open-loop latency runs from each request's due time: a stalled answer
  is charged to every request queued behind it;
- the pace check warns when the client's CPU share says it, not the
  server, set the pace;
- the metric lists of ``BENCHMARK.json`` and ``workloads.json`` agree.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from client import Loader  # noqa: E402
from workloads import Template  # noqa: E402


def expect(condition: bool, detail: Any = None) -> None:
    """``assert`` that survives ``python -O``."""
    if not condition:
        raise AssertionError(detail)


def check_percentiles() -> None:
    values = list(range(1, 101))
    expect(stats.percentile(values, 50.0) == 50)
    expect(stats.percentile(values, 99.0) == 99)
    expect(stats.percentile(values, 100.0) == 100)
    expect(stats.percentile([7.0], 99.0) == 7.0)
    # 1000 samples leave exactly 10 beyond p99; 999 leave 9.
    expect(stats.beyond(1000, 99.0) == 10)
    expect(stats.highest_supported(1000) == 99.0)
    expect(stats.highest_supported(999) == 95.0)
    expect(stats.highest_supported(10_000) == 99.9)
    expect(stats.highest_supported(20) == 50.0)
    expect(stats.highest_supported(19) is None)
    expect(stats.windows([0.5, 1.5, 2.5, 3.0], [1, 2, 3, 4], 0.0, 3.0, 3) == [[1], [2], [3]])
    expect(stats.window_count(3500, 1000, 5) == 3)
    expect(stats.window_count(500, 1000, 5) == 1)
    expect(stats.window_count(99_000, 1000, 5) == 5)
    expect(stats.median([3.0, 1.0, 2.0]) == 2.0)
    expect(stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5)


def check_pace_warning() -> None:
    expect(stats.pace_warning(0.5) is None)
    expect(stats.pace_warning(0.89) is None)
    warning = stats.pace_warning(0.95)
    expect(warning is not None and "client" in warning)


class _StallServer:
    """A keep-alive HTTP stub: the first answer takes ``stall`` seconds,
    later ones are immediate."""

    def __init__(self, stall: float):
        self.stall = stall
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn:
            buf = b""
            first = True
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, _, rest = buf.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                while len(rest) < length:
                    rest += conn.recv(65536)
                buf = rest[length:]
                if first:
                    time.sleep(self.stall)
                    first = False
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=5)


class _Always:
    """A request source whose every answer is right."""

    template = Template("get", b"/v1/get", b'"point":[0.5,0.5]}', None)
    deferred = False

    def next_request(self, rng: Any) -> Template:
        return self.template

    def acknowledge(self, template: Template, status: int, body: bytes) -> bool:
        return status == 200


def check_open_loop_due_time() -> None:
    stall, rate = 0.25, 100.0
    server = _StallServer(stall)
    loader = Loader(server.port, _Always(), seed=0, connections=1)
    try:
        res = loader.open_loop(0.5, rate)
    finally:
        loader.close()
        server.close()
    lat = res.latency["get"]
    expect(len(lat) == 50, len(lat))
    # The first request answers after the stall; the one due 10 ms later
    # was sent only then, yet its latency counts from its due time.
    expect(lat[0] >= stall * 0.95, lat[:3])
    expect(lat[1] >= stall - 1.0 / rate - 0.01, lat[:3])
    # Once the backlog drains, latency falls back to the service time.
    expect(lat[-1] < 0.05, lat[-3:])
    # The generator itself was never late beyond scheduling noise.
    expect(stats.percentile(res.lag, 99.0) < 0.05, max(res.lag))


def check_metric_lists() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    expect([m["name"] for m in bench["per_layer"]] == list(config["per_layer"]))
    expect([m["name"] for m in bench["end_to_end"]] == list(config["end_to_end"]))
    expect([w["name"] for w in bench["workloads"]] == list(config["workloads"]))
    for name, spec in config["per_layer"].items():
        expect(set(spec["sampled_on"]) <= set(config["workloads"]), name)


#: Checks that touch no clock or socket; cheap and deterministic.
CHECKS: list[Callable[[], None]] = [
    check_percentiles,
    check_pace_warning,
    check_metric_lists,
]

#: Checks timed over a real socket: a host stall can fail one attempt.
TIMED_CHECKS: list[Callable[[], None]] = [check_open_loop_due_time]
TIMED_ATTEMPTS = 2


def run_all(timed: bool = False) -> list[str]:
    """Run the checks (with ``timed``, also the socket-timed ones, each
    up to ``TIMED_ATTEMPTS`` times); the failures as ``name: message`` lines."""
    problems = []
    for check in CHECKS + (TIMED_CHECKS if timed else []):
        tries = TIMED_ATTEMPTS if check in TIMED_CHECKS else 1
        for attempt in range(tries):
            try:
                check()
                break
            except AssertionError as exc:
                if attempt == tries - 1:
                    problems.append(f"{check.__name__}: {exc!r}")
    return problems


if __name__ == "__main__":
    failures = run_all(timed=True)
    for failure in failures:
        print(failure)
    total = len(CHECKS) + len(TIMED_CHECKS)
    print(f"{total - len(failures)}/{total} self-tests passed")
    sys.exit(1 if failures else 0)
