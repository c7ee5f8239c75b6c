"""Group commit in the write batcher, driven deterministically.

The writer is held inside ``apply_ops`` on an event, so "what is queued
when the writer comes back" is fixed by the test rather than by timing:
no sleep is used to wait for anything.
"""

import threading
from concurrent.futures import Future

import pytest

from repro.concurrency import build_service, insert_op
from repro.errors import ReproError
from repro.server.batch import _SHUTDOWN, WriteBatcher, _Pending

from tests.concurrency.conftest import distinct_points

TIMEOUT_S = 10.0


class HeldWriter:
    """A batcher whose writer blocks in ``apply_ops`` until released.

    Records the size of every group it applies, in order.
    """

    def __init__(self, max_batch=64):
        self.service, _ = build_service()
        self.points = distinct_points(200, self.service.tree.space, seed=11)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.groups = []
        apply_ops = self.service.apply_ops

        def held(ops):
            self.groups.append(len(ops))
            self.entered.set()
            self.release.wait(TIMEOUT_S)
            return apply_ops(ops)

        self.service.apply_ops = held
        self.batcher = WriteBatcher(self.service, max_batch=max_batch)

    def hold(self):
        """Submit one write and wait until the writer is inside it."""
        future = self.batcher.submit([insert_op(self.points.pop(), "held")])
        assert self.entered.wait(TIMEOUT_S)
        return future

    def submit(self, n):
        return [
            self.batcher.submit([insert_op(self.points.pop(), i)])
            for i in range(n)
        ]

    def close(self):
        self.release.set()
        self.batcher.close()
        assert not self.batcher._thread.is_alive()


@pytest.fixture()
def held():
    writer = HeldWriter()
    try:
        yield writer
    finally:
        writer.close()


class TestGroupCommit:
    def test_queued_writes_commit_as_one_group_at_one_lsn(self, held):
        first = held.hold()
        futures = held.submit(20)
        held.release.set()
        assert first.result(TIMEOUT_S)[1] == 1
        results = [f.result(TIMEOUT_S) for f in futures]
        assert all(outcomes == [(True, None)] for outcomes, _ in results)
        assert {lsn for _, lsn in results} == {2}
        assert held.groups == [1, 20]
        stats = held.batcher.stats
        assert (stats.batches, stats.requests, stats.max_batch_seen) == (2, 21, 20)

    def test_lone_submit_on_an_idle_batcher_commits_alone(self, held):
        held.release.set()
        for expected_lsn in (1, 2, 3):
            (future,) = held.submit(1)
            assert future.result(TIMEOUT_S)[1] == expected_lsn
        assert held.groups == [1, 1, 1]

    def test_groups_are_capped_at_max_batch(self):
        writer = HeldWriter(max_batch=4)
        try:
            writer.hold()
            futures = writer.submit(9)
            writer.release.set()
            lsns = [f.result(TIMEOUT_S)[1] for f in futures]
        finally:
            writer.close()
        assert writer.groups == [1, 4, 4, 1]
        assert lsns == [2] * 4 + [3] * 4 + [4]

    def test_failed_op_fails_only_its_own_request(self, held):
        point = held.points[-1]
        held.hold()  # inserts ``point``
        duplicate = held.batcher.submit([insert_op(point, "again")])
        fresh = held.submit(1)[0]
        held.release.set()
        (outcome,), lsn = duplicate.result(TIMEOUT_S)
        assert outcome[0] is False and lsn == 2
        assert fresh.result(TIMEOUT_S) == ([(True, None)], 2)


class TestClose:
    def test_close_commits_what_is_queued(self, held):
        held.hold()
        futures = held.submit(5)
        closer = threading.Thread(target=held.batcher.close)
        closer.start()
        held.release.set()
        closer.join(TIMEOUT_S)
        assert not closer.is_alive()
        assert {f.result(TIMEOUT_S)[1] for f in futures} == {2}

    def test_submit_after_close_is_refused(self, held):
        held.close()
        with pytest.raises(ReproError):
            held.submit(1)

    def test_request_behind_the_sentinel_fails_instead_of_hanging(self, held):
        # submit() and close() share a lock, so submit cannot put a
        # request behind the sentinel; one put there anyway must still
        # fail rather than leave its caller waiting forever.
        held.hold()
        queue = held.batcher._queue
        queue.put(_SHUTDOWN)
        straggler = _Pending([insert_op(held.points.pop())], Future())
        queue.put(straggler)
        held.release.set()
        held.batcher._thread.join(TIMEOUT_S)
        assert not held.batcher._thread.is_alive()
        with pytest.raises(ReproError, match="closed"):
            straggler.future.result(TIMEOUT_S)
