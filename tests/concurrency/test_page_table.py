"""The chunked page table behind published versions.

A commit must copy only the chunks holding pages it wrote or freed and
share every other chunk, by identity, with the previous version; pinned
versions must never change; and the table must stay sized by the live
pages however far page ids run ahead of them.
"""

import pytest

from repro.concurrency import PageTable, build_service
from repro.errors import PageNotFoundError

from tests.concurrency.conftest import distinct_points, make_space


def table_of(pages):
    return PageTable().commit(pages, ())


def populated(layout, n=1500, seed=3):
    """A service over enough pages (capacity 4) to span several chunks."""
    service, _ = build_service(layout, space=make_space(12))
    points = distinct_points(n, service.tree.space, seed=seed)
    for i, point in enumerate(points):
        service.insert(point, i)
    return service, points


class TestPageTableUnit:
    def test_pages_on_both_sides_of_a_chunk_boundary(self):
        table = table_of({1: "a", 255: "b", 256: "c", 511: "d", 512: "e"})
        assert sorted(table.chunks) == [0, 1, 2]
        assert [table[pid] for pid in (1, 255, 256, 511, 512)] == list("abcde")
        assert len(table) == 5
        assert sorted(table) == [1, 255, 256, 511, 512]
        assert 255 in table and 257 not in table
        with pytest.raises(KeyError):
            table[257]

    def test_commit_copies_only_touched_chunks(self):
        old = table_of({1: "a", 255: "b", 256: "c", 600: "d"})
        new = old.commit({256: "C", 300: "x"}, ())
        assert new.chunks[0] is old.chunks[0]
        assert new.chunks[2] is old.chunks[2]
        assert new.chunks[1] is not old.chunks[1]
        assert (new[256], new[300], len(new)) == ("C", "x", 5)
        # The old table is untouched.
        assert (old[256], 300 in old, len(old)) == ("c", False, 4)

    def test_freed_pages_disappear_and_empty_chunks_drop(self):
        old = table_of({1: "a", 255: "b", 256: "c"})
        new = old.commit({}, [256, 1, 9999])
        assert 256 not in new and 1 not in new
        assert sorted(new.chunks) == [0]
        assert len(new) == 1
        assert sorted(old) == [1, 255, 256]

    def test_rewrite_and_free_in_one_chunk(self):
        old = table_of({10: "a", 11: "b", 12: "c"})
        new = old.commit({10: "A", 13: "d"}, [11, 12])
        assert dict(new) == {10: "A", 13: "d"}
        assert len(new) == 2
        assert dict(old) == {10: "a", 11: "b", 12: "c"}


class TestPublishedTables:
    def test_untouched_chunks_are_shared_by_identity(self, layout):
        service, _ = populated(layout)
        before = service.snapshot().version.pages
        assert len(before.chunks) >= 3
        extra = distinct_points(1501, service.tree.space, seed=3)[-1]
        service.insert(extra, "new")
        after = service.snapshot().version.pages
        copied = {
            key
            for key, chunk in after.chunks.items()
            if chunk is not before.chunks.get(key)
        }
        # A chunk is copied exactly when it holds a page the commit
        # wrote (a fresh clone), allocated or freed.
        changed = {
            pid >> 8
            for pid in set(before) | set(after)
            if before.get(pid) is not after.get(pid)
        }
        assert copied == changed
        assert 1 <= len(copied) < len(after.chunks)

    def test_reads_cross_chunk_boundaries(self, layout):
        service, points = populated(layout)
        snapshot = service.snapshot()
        pages = snapshot.version.pages
        assert max(pages) >> 8 >= 2
        for i, point in enumerate(points):
            assert snapshot.get(point) == i
        assert len(pages) == service.stats()["committed_pages"]
        with pytest.raises(PageNotFoundError):
            snapshot.store.read(max(pages) + 1)
        snapshot.materialize().check()

    def test_pinned_snapshot_survives_rewrites_of_its_chunks(self, layout):
        service, points = populated(layout)
        pinned = service.snapshot()
        frozen_items = sorted(pinned.items())
        frozen_chunks = {
            key: dict(chunk)
            for key, chunk in pinned.version.pages.chunks.items()
        }
        for point in points[::2]:
            service.delete(point)
        for i, point in enumerate(points[::3]):
            service.insert(point, -i, replace=True)
        assert set(pinned.version.pages.chunks) == set(frozen_chunks)
        for key, chunk in pinned.version.pages.chunks.items():
            assert chunk == frozen_chunks[key]
        assert sorted(pinned.items()) == frozen_items
        pinned.materialize().check()

    def test_committed_pages_equals_live_pages(self, layout):
        service, points = populated(layout, n=400)
        for point in points[::2]:
            service.delete(point)
        store = service.tree.store
        assert service.stats()["committed_pages"] == store.live_pages()
        assert set(service.snapshot().version.pages) == set(store.page_ids())

    def test_chunk_count_bounded_by_live_pages_under_churn(self, layout):
        service, _ = build_service(layout, space=make_space(12))
        points = distinct_points(300, service.tree.space, seed=5)
        top = 0
        for _ in range(12):
            for i, point in enumerate(points):
                service.insert(point, i)
            top = max(top, max(service.snapshot().version.pages))
            for point in points:
                service.delete(point)
        pages = service.snapshot().version.pages
        live = service.tree.store.live_pages()
        # Page ids ran far past the few live pages ...
        assert top >> 8 >= 5 * live
        # ... yet every chunk holds a live page, so the outer dict is
        # sized by the live pages, not by the highest id.
        assert all(pages.chunks.values())
        assert len(pages.chunks) <= live
        assert len(pages) == live
