"""Seeded inputs, request streams and expected answers for each workload.

Everything here is a pure function of the seed.  The server receives only
the generated records (as a packed file); the requests and their expected
answers stay with the client:

- ``point_lookup`` and ``range_scan`` pre-generate a pool of requests with
  the exact answer of each — the get value or a 404, the range count plus
  two order-free checksums over the returned values, the k-NN distance
  list — computed from the client's copy of the data before any timing.
- ``write_mix`` pre-generates its write sequence with the answer of each
  write (a delete returns the value it removed).  Its gets pick a key
  among the most recently acknowledged writes when they are sent, so
  their answer is read from the client's model of acknowledged state at
  that moment: a get sent after a write's acknowledgement must see it,
  and a get racing a write on the same key may see either side of it.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from typing import Any

import numpy as np

#: Grid cells per dimension of the served space (``DataSpace.unit(2)``
#: keeps 32 bits per dimension): two points in one cell are the same key.
CELLS = float(1 << 32)

#: Keys a write may not reuse within this many later writes.  At most two
#: requests are in flight (two connections), so writes to one key always
#: apply in sequence order and no write can fail.
KEY_REUSE_GAP = 64


class Template:
    """One request the client can send, with what its answer must be."""

    __slots__ = ("kind", "path", "rest", "expect", "op", "key")

    def __init__(
        self,
        kind: str,
        path: bytes,
        rest: bytes,
        expect: Any,
        op: str = "",
        key: Any = None,
    ):
        #: Latency class: get, range, knn, write or scrape.
        self.kind = kind
        self.path = path
        #: The JSON body after its opening brace; the client prepends the
        #: request id (``{"rid":N,``) when it sends.
        self.rest = rest
        self.expect = expect
        #: For writes: insert, delete or replace.
        self.op = op
        self.key = key


SCRAPE = Template("scrape", b"/metrics", b"", None)


def _rest(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()[1:]


def unique_points(rng: np.random.Generator, n: int, draw: Any) -> np.ndarray:
    """``n`` points from ``draw(rng, m)`` with no two in one grid cell."""
    out = np.empty((0, 2))
    seen: set[tuple[int, int]] = set()
    while len(out) < n:
        batch = draw(rng, (n - len(out)) + 64)
        keep = []
        for i, (x, y) in enumerate(batch):
            cell = (int(x * CELLS), int(y * CELLS))
            if cell not in seen:
                seen.add(cell)
                keep.append(i)
        out = np.concatenate([out, batch[keep]])
    return out[:n]


def uniform(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.random((m, 2))


def clustered(rng: np.random.Generator, n: int, clusters: int = 12) -> np.ndarray:
    """Equal-weight Gaussian clusters, spreads from tight to wide, kept
    inside [0, 1).  Only the centres and the points depend on the seed, so
    every seed builds a tree of the same character."""
    centres = rng.uniform(0.1, 0.9, (clusters, 2))
    spreads = np.geomspace(0.004, 0.06, clusters)
    weights = np.full(clusters, 1.0 / clusters)

    def draw(r: np.random.Generator, m: int) -> np.ndarray:
        parts = []
        for c, count in enumerate(r.multinomial(m, weights)):
            pts = r.normal(centres[c], spreads[c], (count * 2 + 8, 2))
            inside = pts[((pts >= 0.0) & (pts < 1.0)).all(axis=1)]
            parts.append(inside[:count])
        pts = np.concatenate(parts)
        return pts[r.permutation(len(pts))]

    return unique_points(rng, n, draw)


def point_body(point: Any) -> dict[str, Any]:
    return {"point": [float(point[0]), float(point[1])]}


class Pool:
    """A fixed list of templates, sent in order and cycled."""

    #: Answers are fixed in advance, so the client may check them after
    #: the phase instead of on arrival.
    deferred = True

    def __init__(self, templates: list[Template]):
        self.templates = templates
        self._next = 0

    def next_request(self, rng: random.Random) -> Template:
        t = self.templates[self._next]
        self._next = (self._next + 1) % len(self.templates)
        return t

    def acknowledge(self, template: Template, status: int, body: bytes) -> bool:
        return check_answer(template, status, body)


def check_answer(t: Template, status: int, body: bytes) -> bool:
    """Whether a read or scrape response is the expected answer."""
    kind = t.kind
    if kind == "get":
        if t.expect is None:
            return status == 404
        return status == 200 and json.loads(body)["value"] == t.expect
    if kind == "range":
        if status != 200:
            return False
        reply = json.loads(body)
        values = [r["value"] for r in reply["records"]]
        count, total, squares = t.expect
        return (
            reply["count"] == count
            and len(values) == count
            and sum(values) == total
            and sum(v * v for v in values) == squares
        )
    if kind == "knn":
        if status != 200:
            return False
        got = [n["distance"] for n in json.loads(body)["neighbours"]]
        return len(got) == len(t.expect) and all(
            abs(a - b) <= 1e-12 * max(1.0, b) for a, b in zip(got, t.expect)
        )
    if kind == "scrape":
        return status == 200 and b"repro_serve_" in body
    raise ValueError(f"no answer check for kind {kind!r}")


# ----------------------------------------------------------------------
# point_lookup
# ----------------------------------------------------------------------


#: Pre-generated requests a point_lookup run cycles through.
POINT_POOL = 20_000


def point_lookup(seed: int) -> tuple[np.ndarray, Pool]:
    """50k uniform points; 95% Zipf(0.99) gets of loaded keys, 5% misses."""
    rng = np.random.default_rng(seed)
    n = 50_000
    pts = unique_points(rng, n, uniform)
    extra = unique_points(rng, POINT_POOL // 20 + 64, uniform)
    taken = {(int(x * CELLS), int(y * CELLS)) for x, y in pts}
    misses = [p for p in extra if (int(p[0] * CELLS), int(p[1] * CELLS)) not in taken]
    order = rng.permutation(n)
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -0.99
    hits = order[rng.choice(n, size=POINT_POOL, p=weights / weights.sum())]
    is_miss = np.zeros(POINT_POOL, dtype=bool)
    is_miss[: POINT_POOL // 20] = True
    rng.shuffle(is_miss)
    templates = []
    m = 0
    for i in range(POINT_POOL):
        if is_miss[i]:
            templates.append(Template("get", b"/v1/get", _rest(point_body(misses[m])), None))
            m += 1
        else:
            key = int(hits[i])
            templates.append(Template("get", b"/v1/get", _rest(point_body(pts[key])), key))
    return pts, Pool(templates)


# ----------------------------------------------------------------------
# range_scan
# ----------------------------------------------------------------------

#: (records a box should return, share of the range requests).
#: The small class holds the median well inside it, so the range p50
#: measures one kind of query instead of jumping between two.
RANGE_CLASSES = ((10, 0.8), (100, 0.15), (2000, 0.05))
KNN_K = 10
#: Pre-generated requests a range_scan run cycles through.
RANGE_POOL = 2_000


def range_scan(seed: int) -> tuple[np.ndarray, Pool]:
    """50k clustered points; 80% boxes of ~10/~100/~2k records, 20% 10-NN."""
    rng = np.random.default_rng(seed)
    n = 50_000
    pts = clustered(rng, n)
    xs, ys = pts[:, 0], pts[:, 1]
    ids = np.arange(n, dtype=np.int64)
    n_range = RANGE_POOL * 4 // 5
    # A range request's target record count; 0 marks a k-NN request.
    targets: list[int] = []
    for target, share in RANGE_CLASSES:
        targets += [target] * round(n_range * share)
    targets += [0] * (RANGE_POOL - len(targets))
    templates = []
    for idx in rng.permutation(len(targets)):
        target = targets[idx]
        if target:
            # A square box around a data point holding ``target`` records,
            # redrawn until it lies inside the space (a clipped box would
            # return fewer records than its class).
            while True:
                cx, cy = pts[rng.integers(n)]
                cheb = np.maximum(np.abs(xs - cx), np.abs(ys - cy))
                half = float(np.partition(cheb, target)[target])
                lows = [cx - half, cy - half]
                highs = [cx + half, cy + half]
                if min(lows) >= 0.0 and max(highs) <= 1.0:
                    break
            inside = (xs >= lows[0]) & (xs < highs[0]) & (ys >= lows[1]) & (ys < highs[1])
            got = ids[inside]
            expect = (int(len(got)), int(got.sum()), int((got * got).sum()))
            templates.append(
                Template("range", b"/v1/range", _rest({"lows": lows, "highs": highs}), expect)
            )
        else:
            q = rng.random(2)
            d2 = (xs - q[0]) ** 2 + (ys - q[1]) ** 2
            nearest = np.sort(np.partition(d2, KNN_K)[:KNN_K])
            body = point_body(q)
            body["k"] = KNN_K
            templates.append(
                Template("knn", b"/v1/knn", _rest(body), [math.sqrt(d) for d in nearest])
            )
    return pts, Pool(templates)


# ----------------------------------------------------------------------
# write_mix
# ----------------------------------------------------------------------


class WriteMix:
    """Half writes (insert / delete / replace in equal thirds), half gets.

    The write sequence is fixed by the seed.  ``model`` is the state the
    server has acknowledged; ``in_flight`` maps a key to the states a get
    may legitimately see while a write to it is outstanding.
    """

    #: Answers depend on what was acknowledged before, so each is checked
    #: on arrival.
    deferred = False
    #: Share of gets aimed at recently acknowledged writes; the rest pick
    #: any originally loaded key.
    RECENT_SHARE = 0.75
    RECENT_MEAN = 32.0

    def __init__(self, pts: np.ndarray, held_out: np.ndarray, writes: int, seed: int):
        rng = random.Random(seed)
        self.loaded = [(float(x), float(y)) for x, y in pts]
        self.model: dict[tuple[float, float], int] = {
            p: i for i, p in enumerate(self.loaded)
        }
        self.in_flight: dict[tuple[float, float], tuple[Any, Any]] = {}
        self.recent: deque[tuple[float, float]] = deque(maxlen=4096)
        self.writes = self._plan(rng, held_out, writes)
        self._next_write = 0
        self._kinds = ["write", "write", "write", "get", "get", "get"]
        self._block: list[str] = []

    def _plan(self, rng: random.Random, held_out: np.ndarray, count: int) -> list[Template]:
        """The write sequence, each with its expected answer."""
        present = list(self.loaded)
        value = dict(self.model)
        where = {p: i for i, p in enumerate(present)}
        recently: deque[tuple[float, float]] = deque()
        busy: set[tuple[float, float]] = set()
        fresh = iter((float(x), float(y)) for x, y in held_out)
        next_value = len(present)
        ops = ["insert", "delete", "replace"]
        plan: list[Template] = []
        block: list[str] = []
        while len(plan) < count:
            if not block:
                block = ops[:]
                rng.shuffle(block)
            op = block.pop()
            if op == "insert":
                try:
                    key = next(fresh)
                except StopIteration:
                    raise RuntimeError("write_mix ran out of held-out keys") from None
                where[key] = len(present)
                present.append(key)
                value[key] = next_value
                body = point_body(key)
                body["value"] = next_value
                plan.append(Template("write", b"/v1/insert", _rest(body), None, op, key))
                next_value += 1
            else:
                while True:
                    key = present[rng.randrange(len(present))]
                    if key not in busy:
                        break
                if op == "delete":
                    last = present.pop()
                    if last != key:
                        present[where[key]] = last
                        where[last] = where[key]
                    del where[key]
                    plan.append(
                        Template("write", b"/v1/delete", _rest(point_body(key)), value.pop(key), op, key)
                    )
                else:
                    body = point_body(key)
                    body["value"] = next_value
                    body["replace"] = True
                    value[key] = next_value
                    plan.append(Template("write", b"/v1/insert", _rest(body), None, op, key))
                    next_value += 1
            busy.add(key)
            recently.append(key)
            if len(recently) > KEY_REUSE_GAP:
                busy.discard(recently.popleft())
        return plan

    def next_write(self) -> Template:
        """The next planned write, registered as in flight."""
        if self._next_write >= len(self.writes):
            raise RuntimeError("write_mix ran out of planned writes")
        t = self.writes[self._next_write]
        self._next_write += 1
        before = self.model.get(t.key)
        after = None if t.op == "delete" else _written_value(t)
        self.in_flight[t.key] = (before, after)
        return t

    def next_request(self, rng: random.Random) -> Template:
        if not self._block:
            self._block = self._kinds[:]
            rng.shuffle(self._block)
        if self._block.pop() == "write":
            return self.next_write()
        recent = self.recent
        if recent and rng.random() < self.RECENT_SHARE:
            back = min(int(rng.expovariate(1.0 / self.RECENT_MEAN)), len(recent) - 1)
            key = recent[-1 - back]
        else:
            key = self.loaded[rng.randrange(len(self.loaded))]
        states = self.in_flight.get(key)
        expect = states if states is not None else (self.model.get(key),)
        return Template("get", b"/v1/get", _rest(point_body(key)), expect, "get", key)

    def acknowledge(self, t: Template, status: int, body: bytes) -> bool:
        if t.kind == "scrape":
            return check_answer(t, status, body)
        if t.kind == "get":
            if status == 404:
                return None in t.expect
            return status == 200 and json.loads(body)["value"] in t.expect
        before, after = self.in_flight.pop(t.key)
        if t.op == "delete":
            ok = status == 200 and json.loads(body)["value"] == t.expect == before
            self.model.pop(t.key, None)
        else:
            ok = status == 201
            self.model[t.key] = after
        self.recent.append(t.key)
        return ok

    def durable_mismatches(self, stored: dict[tuple[float, float], Any]) -> int:
        """Keys whose recovered state contradicts the acknowledged model.

        Writes still in flight when the server was killed may land either
        way; every acknowledged write must be present.
        """
        bad = 0
        for key in set(self.model) | set(stored):
            got = stored.get(key)
            if key in self.in_flight:
                ok = got in self.in_flight[key]
            else:
                ok = got == self.model.get(key)
            bad += not ok
        return bad


def _written_value(t: Template) -> int:
    return json.loads(b"{" + t.rest)["value"]


def write_mix(seed: int, writes: int) -> tuple[np.ndarray, np.ndarray]:
    """200k uniform points to load, and held-out points for the inserts of
    a ``writes``-long plan (``WriteMix`` takes both)."""
    rng = np.random.default_rng(seed)
    n = 200_000
    both = unique_points(rng, n + writes // 3 + 1, uniform)
    return both[:n], both[n:]
