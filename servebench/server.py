"""The benchmark's server process: build a tree, serve it over HTTP.

Usage (the benchmark's ``run.py`` drives this; it is not a user tool)::

    python3 servebench/server.py build --records R.bin --store DIR
    python3 servebench/server.py serve --records R.bin [--trace-out S.jsonl]
    python3 servebench/server.py serve --store DIR [--trace-out S.jsonl]

``R.bin`` holds the generated points as packed 2-d doubles; record ``i``
gets the value ``i``.  ``build`` bulk-loads them into a fresh durable
store (``sync="commit"``) and closes it with a checkpoint.  ``serve``
either bulk-loads them into an in-memory tree or reopens a durable store,
then serves ``repro.server`` on an ephemeral port, printing ``PORT <n>``
once it listens.  Both trees use the columnar page layout while the
library still takes a ``layout`` argument, and the library default once
it no longer does.

``--cpu`` pins the process (all its threads) to one CPU.  With
``--trace-out`` the server wraps each layer's public entry points
(see ``spans.py``); ``SIGUSR2`` drops the spans recorded so far and
``SIGUSR1`` writes them to that file.  ``SIGTERM`` or EOF on stdin (the client went away) stops it.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import os
import signal
import sys
from array import array
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.concurrency.service import TreeService  # noqa: E402
from repro.concurrency.snapshots import Snapshot  # noqa: E402
from repro.core.tree import BVTree  # noqa: E402
from repro.geometry.space import DataSpace  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.server.app import Response, ServingApp  # noqa: E402
from repro.server.batch import WriteBatcher  # noqa: E402
from repro.server.http import serve_app  # noqa: E402
from repro.storage.durable.recovery import (  # noqa: E402
    create_durable_tree,
    open_durable_tree,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import CountingStore, SpanLog  # noqa: E402

DATA_CAPACITY = 32
FANOUT = 32


def columnar(factory: Callable[..., Any]) -> dict[str, str]:
    """``layout="columnar"`` while ``factory`` still takes a layout."""
    if "layout" in inspect.signature(factory).parameters:
        return {"layout": "columnar"}
    return {}


def load_records(path: str) -> list[tuple[tuple[float, float], int]]:
    coords = array("d")
    with open(path, "rb") as src:
        coords.frombytes(src.read())
    return [
        ((coords[i], coords[i + 1]), i // 2) for i in range(0, len(coords), 2)
    ]


def build(records_path: str, store_dir: str) -> None:
    tree = create_durable_tree(
        store_dir,
        DataSpace.unit(2),
        data_capacity=DATA_CAPACITY,
        fanout=FANOUT,
        sync="commit",
        **columnar(create_durable_tree),
    )
    tree.bulk_load(load_records(records_path))
    tree.store.close()


def instrument(
    spans: SpanLog,
    tree: BVTree,
    service: TreeService,
    batcher: WriteBatcher,
    app: ServingApp,
    durable: Any,
    proxy: CountingStore | None,
) -> None:
    """Wrap every layer's public entry points (nothing in ``src``)."""
    app.handle = spans.wrap_handle(app.handle)  # type: ignore[method-assign]
    Response.body_bytes = spans.wrap_body_bytes(Response.body_bytes)  # type: ignore[method-assign]
    service.snapshot = spans.wrap("service.snapshot", service.snapshot)  # type: ignore[method-assign]

    def reads(snap: Snapshot, *args: Any) -> int:
        return snap.store.reads

    def get_attrs(mark: int, result: Any, snap: Snapshot, *args: Any) -> dict[str, Any]:
        return {"pages": snap.store.reads - mark}

    def query_attrs(mark: int, result: Any, snap: Snapshot, *args: Any) -> dict[str, Any]:
        if result is None:
            return {}
        attrs = {"pages": result.pages_visited}
        records = getattr(result, "records", None)
        if records is not None:
            attrs["records"] = len(records)
        return attrs

    Snapshot.get = spans.wrap("read.get", Snapshot.get, get_attrs, reads)  # type: ignore[method-assign]
    Snapshot.range_query = spans.wrap("read.range", Snapshot.range_query, query_attrs)  # type: ignore[method-assign]
    Snapshot.nearest = spans.wrap("read.knn", Snapshot.nearest, query_attrs)  # type: ignore[method-assign]

    stats = tree.stats

    def structural(*args: Any) -> tuple[int, int]:
        return stats.data_splits + stats.index_splits, stats.promotions

    def write_attrs(mark: tuple[int, int], result: Any, *args: Any) -> dict[str, int]:
        splits, promotions = structural()
        return {"splits": splits - mark[0], "promotions": promotions - mark[1]}

    tree.insert = spans.wrap("tree.insert", tree.insert, write_attrs, structural)  # type: ignore[method-assign]
    tree.delete = spans.wrap("tree.delete", tree.delete, write_attrs, structural)  # type: ignore[method-assign]

    def counters() -> dict[str, int]:
        if proxy is None:
            return {}
        wal = durable.wal_stats
        return {
            "wal_bytes": wal.bytes_written,
            "wal_syncs": wal.syncs,
            "store_calls": proxy.calls,
        }

    def per_commit() -> dict[str, int]:
        return {"pages_copied": proxy.take_copied()} if proxy is not None else {}

    service.apply_ops = spans.wrap_apply_ops(service.apply_ops, counters, per_commit)  # type: ignore[method-assign]
    batcher.submit = spans.wrap_submit(batcher.submit)  # type: ignore[method-assign]
    spans.watch_gc()


async def serve(args: argparse.Namespace) -> None:
    durable = None
    if args.store:
        tree, _ = open_durable_tree(args.store, sync="commit")
        durable = tree.store
    else:
        tree = BVTree(
            DataSpace.unit(2),
            data_capacity=DATA_CAPACITY,
            fanout=FANOUT,
            **columnar(BVTree),
        )
        tree.bulk_load(load_records(args.records))
    spans = SpanLog() if args.trace_out else None
    proxy = None
    if spans is not None and durable is not None:
        # Below the service's recording shim, so every Storage call the
        # live tree and the publication make is counted.
        proxy = tree.store = CountingStore(durable)
    service = TreeService(tree)
    batcher = WriteBatcher(service)
    app = ServingApp(service, registry=MetricsRegistry(), batcher=batcher)
    if spans is not None:
        instrument(spans, tree, service, batcher, app, durable, proxy)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if spans is not None:
        loop.add_signal_handler(signal.SIGUSR1, spans.dump, args.trace_out)
        loop.add_signal_handler(signal.SIGUSR2, spans.rows.clear)

    def stdin_closed() -> None:
        if not sys.stdin.buffer.read1(4096):
            stop.set()

    loop.add_reader(sys.stdin.fileno(), stdin_closed)
    bound: list[int] = []
    server = asyncio.create_task(
        serve_app(app, "127.0.0.1", 0, bound=bound, stop=stop)
    )
    while not bound:
        if server.done():
            server.result()
        await asyncio.sleep(0.001)
    print(f"PORT {bound[0]}", flush=True)
    try:
        await server
    finally:
        batcher.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("build", "serve"))
    parser.add_argument("--records")
    parser.add_argument("--store")
    parser.add_argument("--trace-out")
    parser.add_argument("--cpu", type=int, help="pin the process to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    if args.mode == "build":
        build(args.records, args.store)
    else:
        asyncio.run(serve(args))


if __name__ == "__main__":
    main()
