"""Differential property test: heap-indexed queue vs a linear-scan spec.

The heap-indexed :class:`FairShareQueue` exists only as a faster index
over exactly the dispatch order a linear scan over every lane defines.
:class:`LinearScanFairShareQueue` below is that scan, kept here as the
executable specification.  This test drives both implementations
through identical random interleavings of every key-changing operation
— push, pop (with and without admissibility filters), charge, requeue,
set_weight — and requires the pop sequences to match task-for-task.
Any divergence is a bug in the heap index, never in the reference.
"""

from typing import Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler.queue import FairShareQueue, ScheduledTask, TaskState


class LinearScanFairShareQueue(FairShareQueue):
    """The pre-heap O(U log U) dispatch scan.

    Selection semantics are defined by this scan: minimum
    ``(band, vtime, head_seq)`` over every lane with an admissible head,
    lanes visited in sorted user order.
    """

    def pop_next(
        self, admissible: Callable[[ScheduledTask], bool] | None = None
    ) -> ScheduledTask | None:
        """Dispatch the next task by scanning every lane (the spec)."""
        best: tuple[int, float, int] | None = None
        best_lane = None
        for user in sorted(self._index):
            lane = self._index[user]
            if not lane.fifo:
                continue
            head = lane.fifo[0]
            if admissible is not None and not admissible(head):
                continue
            key = (-head.priority, lane.vtime, head.seq)
            if best is None or key < best:
                best = key
                best_lane = lane
        if best_lane is None:
            return None
        task = best_lane.fifo.popleft()
        self._depth -= 1
        task.state = TaskState.CLAIMED
        if best_lane.vtime > self._global_vtime:
            self._global_vtime = best_lane.vtime
        self._reindex(best_lane)
        return task


_USERS = ("alice", "bob", "carol", "dave")


def _task(user: str, size: int, priority: int, task_id: str) -> ScheduledTask:
    return ScheduledTask(
        task_id=task_id, user=user, src_endpoint="ep-a", dst_endpoint="ep-b",
        size_hint=size, execute=lambda: None, priority=priority,
    )


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 3),
                  st.integers(1, 1 << 20), st.integers(0, 2)),
        st.tuples(st.just("pop")),
        # admissibility filter: a pure function of the task (size bound),
        # so both queues see the identical predicate
        st.tuples(st.just("pop_if"), st.integers(1, 1 << 20)),
        st.tuples(st.just("charge"), st.integers(0, 3), st.integers(0, 1 << 22)),
        st.tuples(st.just("requeue"), st.integers(0, 63)),
        st.tuples(st.just("weight"), st.integers(0, 3),
                  st.floats(0.125, 8.0, allow_nan=False, allow_infinity=False)),
    ),
    max_size=300,
)


def _pop_both(heap_q, ref_q, admissible=None):
    got = heap_q.pop_next(admissible)
    want = ref_q.pop_next(admissible)
    got_id = got.task_id if got is not None else None
    want_id = want.task_id if want is not None else None
    assert got_id == want_id
    return got, want


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_heap_index_matches_linear_scan_spec(ops):
    """Identical op interleavings produce identical pop sequences."""
    heap_q = FairShareQueue()
    ref_q = LinearScanFairShareQueue()
    claimed: list[tuple[ScheduledTask, ScheduledTask]] = []
    serial = 0

    for op in ops:
        kind = op[0]
        if kind == "push":
            _, ui, size, priority = op
            serial += 1
            task_id = f"t{serial:04d}"
            heap_q.push(_task(_USERS[ui], size, priority, task_id))
            ref_q.push(_task(_USERS[ui], size, priority, task_id))
        elif kind == "pop":
            got, want = _pop_both(heap_q, ref_q)
            if got is not None:
                claimed.append((got, want))
        elif kind == "pop_if":
            bound = op[1]
            got, want = _pop_both(
                heap_q, ref_q, admissible=lambda t: t.size_hint <= bound
            )
            if got is not None:
                claimed.append((got, want))
        elif kind == "charge":
            _, ui, nbytes = op
            heap_q.charge(_USERS[ui], nbytes)
            ref_q.charge(_USERS[ui], nbytes)
        elif kind == "requeue":
            if claimed:
                got, want = claimed.pop(op[1] % len(claimed))
                heap_q.requeue(got)
                ref_q.requeue(want)
        elif kind == "weight":
            _, ui, w = op
            heap_q.set_weight(_USERS[ui], w)
            ref_q.set_weight(_USERS[ui], w)
        assert len(heap_q) == len(ref_q)

    # drain to exhaustion: the full remaining dispatch order must agree
    while True:
        got, _ = _pop_both(heap_q, ref_q)
        if got is None:
            break
    assert len(heap_q) == len(ref_q) == 0
