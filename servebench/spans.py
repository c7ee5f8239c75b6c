"""Span recording for the traced server run.

The traced server wraps the public entry points of each layer from the
outside — nothing under ``src/`` knows it is being timed:

- ``ServingApp.handle`` and ``Response.body_bytes`` (``server.app``);
- ``TreeService.snapshot`` and ``TreeService.apply_ops``
  (``concurrency.service``);
- ``Snapshot.get``, ``Snapshot.range_query`` and ``Snapshot.nearest``
  (``concurrency.snapshots`` over the ``core`` read paths);
- the live tree's ``insert`` and ``delete`` (``core`` writes);
- ``WriteBatcher.submit`` (``server.batch``);
- a Storage-protocol proxy around the durable store (``storage``);
- ``gc.callbacks`` (interpreter pauses).

Each span is one tuple ``(id, parent, rid, name, t0_ns, t1_ns, attrs)``
kept in memory and written as JSONL on request.  ``rid`` is the client's
request id, read from the ``"rid"`` field the benchmark client puts at the
front of every JSON body (the app ignores unknown fields); child spans on
the same thread inherit it, and write spans on the batcher thread are
linked to their requests through ``batch.wait`` spans.  Times are
``perf_counter_ns`` — CLOCK_MONOTONIC on Linux, so the client can place
spans on its own timeline.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import threading
from time import perf_counter_ns
from typing import Any, Callable

_RID_PREFIX = b'{"rid":'


class SpanLog:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.rows: list[tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (span id, start ns) of the apply_ops call running or last run.
        self.last_apply: tuple[int, int] = (0, 0)

    def _ctx(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
        return local

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        attrs: Callable[..., dict[str, Any] | None] | None = None,
        before: Callable[..., Any] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``before(*args)`` runs ahead of the timed call and its result is
        handed to ``attrs(mark, result, *args)``, which returns the span's
        attributes — used for counter deltas (pages read, splits, WAL
        bytes) taken around the call.
        """
        ids = self._ids
        rows = self.rows
        ctx = self._ctx

        def traced(*args: Any, **kwargs: Any) -> Any:
            local = ctx()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            mark = before(*args) if before is not None else None
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter_ns()
                stack.pop()
                extra = attrs(mark, None, *args) if attrs is not None else {}
                extra = dict(extra or {}, error=type(exc).__name__)
                rows.append((sid, parent, local.rid, name, t0, t1, extra))
                raise
            t1 = perf_counter_ns()
            stack.pop()
            extra = attrs(mark, result, *args) if attrs is not None else None
            rows.append((sid, parent, local.rid, name, t0, t1, extra))
            return result

        return traced

    def wrap_handle(self, handle: Callable[..., Any]) -> Callable[..., Any]:
        """``ServingApp.handle`` as the root span of one request."""
        inner = self.wrap("app.handle", handle, _handle_attrs)
        ctx = self._ctx

        def traced(method: str, path: str, body: bytes | None) -> Any:
            rid = None
            if body and body.startswith(_RID_PREFIX):
                end = body.find(b",", len(_RID_PREFIX))
                rid = int(body[len(_RID_PREFIX) : end])
            ctx().rid = rid
            response = inner(method, path, body)
            # body_bytes runs later, on the event loop thread; the
            # response carries its request id there.
            response.bench_rid = rid
            response.bench_path = path
            return response

        return traced

    def wrap_body_bytes(self, body_bytes: Callable[..., bytes]) -> Callable[..., bytes]:
        ids = self._ids
        rows = self.rows

        def traced(response: Any) -> bytes:
            t0 = perf_counter_ns()
            data = body_bytes(response)
            t1 = perf_counter_ns()
            rows.append(
                (
                    next(ids),
                    0,
                    getattr(response, "bench_rid", None),
                    "app.body_bytes",
                    t0,
                    t1,
                    {"bytes": len(data), "path": getattr(response, "bench_path", None)},
                )
            )
            return data

        return traced

    def wrap_apply_ops(
        self,
        apply_ops: Callable[..., Any],
        counters: Callable[[], dict[str, int]],
        per_commit: Callable[[], dict[str, int]],
    ) -> Callable[..., Any]:
        """``TreeService.apply_ops`` with per-commit counter deltas.

        ``counters()`` samples cumulative counters (WAL bytes and syncs,
        Storage calls); the span records their deltas across the commit,
        plus whatever ``per_commit()`` reports once the commit is done.
        """
        ids = self._ids
        rows = self.rows
        ctx = self._ctx

        def traced(ops: Any) -> Any:
            local = ctx()
            local.rid = None
            stack = local.stack
            sid = next(ids)
            before = counters()
            stack.append(sid)
            t0 = perf_counter_ns()
            self.last_apply = (sid, t0)
            try:
                result = apply_ops(ops)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            after = counters()
            attrs = {k: after[k] - before[k] for k in after}
            attrs.update(per_commit())
            attrs["ops"] = len(ops)
            rows.append((sid, 0, None, "service.apply_ops", t0, t1, attrs))
            return result

        return traced

    def wrap_submit(self, submit: Callable[..., Any]) -> Callable[..., Any]:
        """``WriteBatcher.submit``; its future's completion records the
        queue wait from submit to the start of the group's apply."""
        inner = self.wrap("batch.submit", submit)
        ids = self._ids
        rows = self.rows
        ctx = self._ctx

        def traced(ops: Any) -> Any:
            rid = ctx().rid
            t_submit = perf_counter_ns()
            future = inner(ops)

            def waited(_: Any) -> None:
                apply_id, apply_t0 = self.last_apply
                rows.append(
                    (next(ids), apply_id, rid, "batch.wait", t_submit, apply_t0, None)
                )

            future.add_done_callback(waited)
            return future

        return traced

    def watch_gc(self) -> None:
        """Record every collector pause as a ``gc`` span."""
        ids = self._ids
        rows = self.rows
        started = [0]

        def callback(phase: str, info: dict[str, Any]) -> None:
            if phase == "start":
                started[0] = perf_counter_ns()
            else:
                rows.append(
                    (
                        next(ids),
                        0,
                        None,
                        "gc",
                        started[0],
                        perf_counter_ns(),
                        {"generation": info.get("generation")},
                    )
                )

        gc.callbacks.append(callback)

    def dump(self, path: str) -> None:
        """Write every span recorded so far as JSONL (atomic rename)."""
        tmp = path + ".tmp"
        with open(tmp, "w") as out:
            for sid, parent, rid, name, t0, t1, attrs in list(self.rows):
                row: dict[str, Any] = {
                    "id": sid,
                    "parent": parent,
                    "rid": rid,
                    "name": name,
                    "t0_ns": t0,
                    "t1_ns": t1,
                }
                if attrs:
                    row.update(attrs)
                out.write(json.dumps(row) + "\n")
        os.replace(tmp, path)


def _handle_attrs(mark: Any, response: Any, method: str, path: str, body: Any) -> dict[str, Any]:
    return {"path": path, "status": response.status}


class CountingStore:
    """A Storage-protocol proxy that counts calls and written pages.

    Sits between the live tree (and the service's recording shim) and
    the durable store.  ``calls`` counts every protocol call; the dirty
    set collects page ids allocated, written or freed, which
    :meth:`take_copied` turns into the number of pages the service's
    publication clones (dirty pages still live, as ``TreeService`` does).
    """

    def __init__(self, inner: Any):
        self.inner = inner
        self.calls = 0
        self._dirty: set[int] = set()

    @property
    def tracer(self) -> Any:
        return self.inner.tracer

    @tracer.setter
    def tracer(self, tracer: Any) -> None:
        self.inner.tracer = tracer

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not defined here (wal_stats, layout, ...).
        return getattr(self.inner, name)

    def take_copied(self) -> int:
        """Live pages dirtied since the last call (and reset the set)."""
        dirty, self._dirty = self._dirty, set()
        return sum(1 for page_id in dirty if page_id in self.inner)

    def allocate(self, content: Any = None, size_class: int = 0) -> int:
        self.calls += 1
        page_id = self.inner.allocate(content, size_class=size_class)
        self._dirty.add(page_id)
        return page_id

    def read(self, page_id: int) -> Any:
        self.calls += 1
        return self.inner.read(page_id)

    def peek(self, page_id: int) -> Any:
        self.calls += 1
        return self.inner.peek(page_id)

    def write(self, page_id: int, content: Any) -> None:
        self.calls += 1
        self._dirty.add(page_id)
        self.inner.write(page_id, content)

    def free(self, page_id: int) -> None:
        self.calls += 1
        self._dirty.add(page_id)
        self.inner.free(page_id)

    def register_size_class(self, size_class: int, page_bytes: int) -> None:
        self.calls += 1
        self.inner.register_size_class(size_class, page_bytes)

    def size_class_of(self, page_id: int) -> int:
        self.calls += 1
        return self.inner.size_class_of(page_id)

    def page_ids(self) -> Any:
        self.calls += 1
        return self.inner.page_ids()

    def live_pages(self, size_class: int | None = None) -> int:
        self.calls += 1
        return self.inner.live_pages(size_class)

    def live_bytes(self) -> int:
        self.calls += 1
        return self.inner.live_bytes()

    def class_stats(self) -> Any:
        self.calls += 1
        return self.inner.class_stats()

    def __contains__(self, page_id: int) -> bool:
        self.calls += 1
        return page_id in self.inner
