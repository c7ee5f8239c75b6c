"""Per-layer metrics from the traced run's spans.

Inputs: the server's spans (JSONL rows from ``spans.py``), the client's
``(rid, kind, sent, done)`` records of the traced open-loop phase, and the
phase's time window — server and client share CLOCK_MONOTONIC, so spans
outside the window (set-up, the closed loop) are dropped.

Timings are medians (p50) unless a name says otherwise.  A ``*_per_write``
count is a ratio of totals (a split is rare, so its median would read 0);
a ``*_per_commit`` or ``pages_per_*`` count is the median per commit or
per query.  A layer a workload never calls has no value (``None``); run.py
reports it as 0, marked idle, and fails the run if the workload should
have called it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Iterable

from stats import median, percentile


def load_spans(path: str) -> list[dict[str, Any]]:
    with open(path) as src:
        return [json.loads(line) for line in src]


def _dur_us(span: dict[str, Any]) -> float:
    return (span["t1_ns"] - span["t0_ns"]) / 1e3


Stat = tuple[float | None, int]


def _p50(values: Iterable[float]) -> Stat:
    values = list(values)
    return (median(values) if values else None), len(values)


def _ratio(num: float, den: float, n: int) -> Stat:
    return (num / den if den else None), n


def per_layer(
    spans: list[dict[str, Any]],
    window: tuple[float, float],
    requests: list[tuple[int, str, float, float]],
) -> dict[str, Stat]:
    """Every span-derived per-layer metric as ``(value, samples)``
    (value ``None`` = layer idle)."""
    lo, hi = window[0] * 1e9, window[1] * 1e9
    spans = [s for s in spans if lo <= s["t0_ns"] <= hi]
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    child_us: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] and s["name"] != "batch.wait":
            child_us[s["parent"]] += _dur_us(s)

    handles = by_name["app.handle"]
    handle_us = {s["rid"]: _dur_us(s) for s in handles if s["rid"] is not None}

    def handle_self(path: str) -> Stat:
        return _p50(_dur_us(s) - child_us[s["id"]] for s in handles if s["path"] == path)

    bodies = [s for s in by_name["app.body_bytes"] if s.get("path") != "/metrics"]
    ranges = by_name["read.range"]
    applies = by_name["service.apply_ops"]
    writes = by_name["tree.insert"] + by_name["tree.delete"]
    ops = sum(s["ops"] for s in applies)
    gc_ms = [_dur_us(s) / 1e3 for s in by_name["gc"]]

    return {
        "http.self_us": _p50(
            (done - sent) * 1e6 - handle_us[rid]
            for rid, kind, sent, done in requests
            if rid in handle_us
        ),
        "http.response_bytes_mean": _ratio(sum(s["bytes"] for s in bodies), len(bodies), len(bodies)),
        "app.self_us.get": handle_self("/v1/get"),
        "app.self_us.range": handle_self("/v1/range"),
        "app.serialise_us.range": _p50(
            _dur_us(s) for s in by_name["app.body_bytes"] if s.get("path") == "/v1/range"
        ),
        "read.get_us": _p50(_dur_us(s) for s in by_name["read.get"]),
        "read.range_us": _p50(_dur_us(s) for s in ranges),
        "read.knn_us": _p50(_dur_us(s) for s in by_name["read.knn"]),
        "read.pages_per_get": _p50(s["pages"] for s in by_name["read.get"]),
        "read.pages_per_range": _p50(s["pages"] for s in ranges if "pages" in s),
        "read.pages_per_knn": _p50(s["pages"] for s in by_name["read.knn"] if "pages" in s),
        "read.records_per_page.range": _ratio(
            sum(s.get("records", 0) for s in ranges), sum(s.get("pages", 0) for s in ranges), len(ranges)
        ),
        "service.snapshot_us": _p50(_dur_us(s) for s in by_name["service.snapshot"]),
        "service.apply_us": _p50(_dur_us(s) for s in applies),
        "service.publish_us": _p50(_dur_us(s) - child_us[s["id"]] for s in applies),
        "service.pages_copied_per_commit": _p50(
            s["pages_copied"] for s in applies if "pages_copied" in s
        ),
        "batch.wait_us": _p50(_dur_us(s) for s in by_name["batch.wait"]),
        "batch.requests_per_commit": _p50(s["ops"] for s in applies),
        "tree.insert_us": _p50(_dur_us(s) for s in by_name["tree.insert"]),
        "tree.delete_us": _p50(_dur_us(s) for s in by_name["tree.delete"]),
        "tree.splits_per_write": _ratio(sum(s.get("splits", 0) for s in writes), len(writes), len(writes)),
        "tree.promotions_per_write": _ratio(
            sum(s.get("promotions", 0) for s in writes), len(writes), len(writes)
        ),
        "store.calls_per_write": _ratio(sum(s.get("store_calls", 0) for s in applies), ops, ops),
        "wal.bytes_per_write": _ratio(sum(s.get("wal_bytes", 0) for s in applies), ops, ops),
        "wal.syncs_per_commit": _p50(s["wal_syncs"] for s in applies if "wal_syncs" in s),
        "obs.scrape_us": _p50(_dur_us(s) for s in handles if s["path"] == "/metrics"),
        "gc.pause_ms_total": ((sum(gc_ms) if gc_ms else None), len(gc_ms)),
        "gc.pause_ms_max": ((max(gc_ms) if gc_ms else None), len(gc_ms)),
    }


def lag_p99_ms(lags: list[float]) -> float:
    return percentile(lags, 99.0) * 1e3
