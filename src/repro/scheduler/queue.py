"""The fleet task queue: weighted fair-share over *bytes*, FIFO ties.

The hosted service of paper Section VI mediates transfers for many
users at once; what keeps one user's million-file campaign from
starving everyone else is this queue.  It implements start-time fair
queuing (a stride/virtual-time discipline) over **delivered bytes**,
not job counts: every user carries a virtual time, dispatch always
picks the lowest-virtual-time user with a runnable task, and finishing
a task advances that user's virtual time by ``bytes / weight``.  Heavy
users therefore fall behind in virtual time and light users catch up —
byte shares converge to the weight vector regardless of task sizes.

Determinism: selection is ``min()`` over ``(band, vtime, head_seq)``
where ``seq`` is the global submission counter, so ordering is
seed-stable and independent of dict enumeration order.  Priority bands
dispatch strictly before lower bands; fair-share applies within a band.

Selection is O(log U) in the number of users: lane heads are indexed in
a lazy min-heap keyed by ``(band, vtime, head_seq)``.  Every operation
that can change a lane's dispatch key (push to an idle lane, requeue,
charge, head pop) bumps the lane's version and pushes a fresh heap
entry; stale entries are discarded when they surface.

Each user's lane is one :class:`_Lane` record — weight, virtual time,
delivered bytes, heap version and FIFO — numbered in first-touch order.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator


class TaskState(enum.Enum):
    """Lifecycle of a queued task."""

    QUEUED = "queued"
    CLAIMED = "claimed"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(slots=True)
class ScheduledTask:
    """One unit of work the fleet scheduler dispatches.

    ``execute`` runs the work inline in virtual time and returns an
    arbitrary result; the queue itself never calls it — workers do.
    ``size_hint`` feeds admission budgets and the fair-share charge
    until the actual delivered byte count is known.

    The four callables (``execute``, ``measure``, ``on_claim`` and
    ``on_requeue``) hold what the work needs: for a Globus Online job,
    the job, its user, its options and the service.  The fleet scheduler
    sets them to None once the task is DONE, so a finished task keeps
    its record only; a requeued task keeps them.
    """

    task_id: str
    user: str
    src_endpoint: str
    dst_endpoint: str
    size_hint: int
    execute: Callable[[], Any] | None
    priority: int = 0
    submitted_at: float = 0.0
    claimed_at: float = 0.0
    seq: int = 0
    attempts: int = 0
    state: TaskState = TaskState.QUEUED
    job_id: str = ""
    delivered_bytes: int = 0
    error: str = ""
    #: trace id of the submit span — the task's primary trace, carried on
    #: every scheduler event and used as the histogram exemplar
    trace_id: str = ""
    #: sub-threshold tasks may fold into a batch unless this is False
    coalesce: bool = True
    #: callbacks the owning service uses to reflect state onto its jobs
    #: (None once DONE, like ``execute`` and ``measure``)
    on_claim: Callable[["ScheduledTask"], None] | None = None
    on_requeue: Callable[["ScheduledTask"], None] | None = None
    #: extracts actual delivered bytes from ``execute``'s result; the
    #: fair-share charge falls back to ``size_hint`` without one
    measure: Callable[[Any], int] | None = None

    @property
    def endpoints(self) -> tuple[str, str]:
        """The (source, destination) endpoint pair the task occupies."""
        return (self.src_endpoint, self.dst_endpoint)


class _Lane:
    """One user's fair-share state; ``index`` names it in heap entries."""

    __slots__ = ("index", "weight", "vtime", "delivered_bytes", "version", "fifo")

    def __init__(self, index: int) -> None:
        self.index = index
        self.weight = 1.0
        self.vtime = 0.0
        self.delivered_bytes = 0
        self.version = 0
        self.fifo: deque[ScheduledTask] = deque()


class FairShareQueue:
    """Byte-weighted fair queuing across users with FIFO tie-breaks.

    Dispatch is O(log U): runnable lanes are indexed by a lazy min-heap
    of ``((band, vtime, head_seq), version, lane_index)`` entries.
    """

    def __init__(self) -> None:
        #: user -> lane, and lanes by index (first-touch order)
        self._index: dict[str, _Lane] = {}
        self._lanes: list[_Lane] = []
        self._seq = itertools.count(1)
        self._global_vtime = 0.0
        self._depth = 0
        #: lazy heap of (dispatch key, lane version, lane index) over heads
        self._heap: list[tuple[tuple[int, float, int], int, int]] = []

    def _lane(self, user: str) -> _Lane:
        """The user's lane, created on first touch."""
        lane = self._index.get(user)
        if lane is None:
            lane = _Lane(len(self._lanes))
            self._index[user] = lane
            self._lanes.append(lane)
        return lane

    def _reindex(self, lane: _Lane) -> None:
        """The lane's dispatch key changed: invalidate and re-push."""
        lane.version += 1
        fifo = lane.fifo
        if fifo:
            head = fifo[0]
            heapq.heappush(
                self._heap,
                ((-head.priority, lane.vtime, head.seq), lane.version, lane.index),
            )

    # -- weights ----------------------------------------------------------

    def set_weight(self, user: str, weight: float) -> None:
        """Assign a fair-share weight (default 1.0; must be positive)."""
        if weight <= 0:
            raise ValueError(f"fair-share weight must be positive (got {weight})")
        lane = self._lane(user)
        lane.weight = float(weight)
        self._reindex(lane)

    def weight(self, user: str) -> float:
        """The user's fair-share weight."""
        lane = self._index.get(user)
        return lane.weight if lane is not None else 1.0

    # -- queue operations -------------------------------------------------

    def __len__(self) -> int:
        return self._depth

    def depth_for(self, user: str) -> int:
        """Queued tasks currently held for one user."""
        lane = self._index.get(user)
        return len(lane.fifo) if lane is not None else 0

    def lane_count(self) -> int:
        """Users with any lane state (active or historical)."""
        return len(self._lanes)

    def push(self, task: ScheduledTask) -> ScheduledTask:
        """Enqueue a task (stamps its FIFO sequence number).

        A user idle at push time re-enters at the current global virtual
        time — an idle period earns no retroactive credit, which is what
        keeps a returning user from locking out everyone who kept
        working (the standard start-time fair queuing rule).
        """
        lane = self._lane(task.user)
        fifo = lane.fifo
        was_idle = not fifo
        if was_idle and lane.vtime < self._global_vtime:
            lane.vtime = self._global_vtime
        task.seq = next(self._seq)
        task.state = TaskState.QUEUED
        fifo.append(task)
        self._depth += 1
        if was_idle:  # a tail append behind an existing head changes no key
            self._reindex(lane)
        return task

    def requeue(self, task: ScheduledTask) -> ScheduledTask:
        """Return a lapsed claim to the queue with its attempt count kept.

        The task goes to the *front* of its user's FIFO: it already won a
        dispatch slot once, so a crashed worker must not cost the user
        their place behind later submissions.
        """
        lane = self._lane(task.user)
        if not lane.fifo and lane.vtime < self._global_vtime:
            lane.vtime = self._global_vtime
        task.state = TaskState.QUEUED
        lane.fifo.appendleft(task)
        self._depth += 1
        self._reindex(lane)
        return task

    def pop_next(
        self, admissible: Callable[[ScheduledTask], bool] | None = None
    ) -> ScheduledTask | None:
        """Dispatch the next task, honouring bands, fairness, and FIFO.

        ``admissible`` is the backpressure hook: a lane whose head fails
        the check is skipped this round (the task stays queued and keeps
        its position).  Returns None when nothing is runnable.

        The winner is the minimum ``(band, vtime, head_seq)`` over lanes
        with an admissible head — popped from the lazy heap in O(log U),
        discarding stale entries and setting inadmissible lanes aside
        (their entries are still current, so they go straight back).
        """
        heap = self._heap
        lanes = self._lanes
        skipped: list[tuple[tuple[int, float, int], int, int]] = []
        best = None
        while heap:
            _key, version, i = heap[0]
            lane = lanes[i]
            if version != lane.version or not lane.fifo:
                heapq.heappop(heap)  # stale: the lane was re-keyed or emptied
                continue
            if admissible is not None and not admissible(lane.fifo[0]):
                skipped.append(heapq.heappop(heap))
                continue
            heapq.heappop(heap)
            best = lane
            break
        for entry in skipped:
            heapq.heappush(heap, entry)
        if best is None:
            return None
        task = best.fifo.popleft()
        self._depth -= 1
        task.state = TaskState.CLAIMED
        if best.vtime > self._global_vtime:
            self._global_vtime = best.vtime
        self._reindex(best)
        return task

    def charge(self, user: str, nbytes: int) -> None:
        """Advance a user's virtual time by ``nbytes / weight``.

        Called on task completion with the *actual* delivered bytes, so
        fair-share converges on real byte shares even when size hints
        were wrong.
        """
        lane = self._lane(user)
        lane.vtime += nbytes / lane.weight
        lane.delivered_bytes += nbytes
        self._reindex(lane)
        if self._depth == 0:
            # end of a busy period: global virtual time catches up to the
            # largest finish tag served (the SFQ idle-transition rule), so
            # a user who worked alone carries no debt into the next burst.
            if lane.vtime > self._global_vtime:
                self._global_vtime = lane.vtime

    # -- introspection ----------------------------------------------------

    @property
    def global_vtime(self) -> float:
        """The queue-wide virtual time (max finish tag served so far)."""
        return self._global_vtime

    def lane_vtime(self, user: str) -> float:
        """The virtual start tag a task pushed for ``user`` would carry.

        An idle lane re-enters at the global virtual time, so this is
        ``max(lane.vtime, global_vtime)`` — the number the flight
        recorder stamps on the submit event.
        """
        lane = self._index.get(user)
        if lane is None or not lane.fifo:
            base = lane.vtime if lane is not None else 0.0
            return max(base, self._global_vtime)
        return lane.vtime

    def lane_stats(self) -> list[dict[str, Any]]:
        """Per-user lane state (weight, vtime tag, depth, delivered bytes)."""
        out = []
        for user in sorted(self._index):
            lane = self._index[user]
            fifo = lane.fifo
            out.append({
                "user": user,
                "weight": lane.weight,
                "vtime": self.lane_vtime(user),
                "depth": len(fifo),
                "delivered_bytes": lane.delivered_bytes,
                "head_seq": fifo[0].seq if fifo else None,
            })
        return out

    def tasks(self) -> Iterator[ScheduledTask]:
        """Every queued task, in deterministic (user, FIFO) order."""
        for user in sorted(self._index):
            yield from self._index[user].fifo

    def delivered_bytes(self) -> dict[str, int]:
        """Bytes charged per user so far (the fairness evidence)."""
        return {
            user: lane.delivered_bytes
            for user, lane in sorted(self._index.items())
            if lane.delivered_bytes
        }

    def fair_share_error(self) -> float:
        """Max absolute deviation between byte shares and weight shares.

        0.0 is perfect weighted fairness; only users that have received
        bytes (or hold queued work) participate.  Shares are summed in
        first-touch lane order.
        """
        active = [lane for lane in self._lanes if lane.delivered_bytes or lane.fifo]
        if not active:
            return 0.0
        total = sum(lane.delivered_bytes for lane in active)
        if total <= 0:
            return 0.0
        wsum = 0.0
        for lane in active:
            wsum += lane.weight
        return max(
            abs(lane.delivered_bytes / total - lane.weight / wsum)
            for lane in active
        )


def jain_index(values: Iterator[float] | list[float]) -> float:
    """Jain's fairness index over per-user allocations (1.0 = perfectly fair).

    ``(Σx)² / (n·Σx²)`` — the standard fleet-fairness summary the
    scheduler benchmark reports over delivered bytes per user.
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    square_of_sum = sum(xs) ** 2
    sum_of_squares = sum(x * x for x in xs)
    if sum_of_squares == 0:
        return 1.0
    return square_of_sum / (len(xs) * sum_of_squares)
