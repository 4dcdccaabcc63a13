"""A scheduled-event queue.

Used for things that must happen at an absolute virtual time regardless of
what the foreground activity is doing: credential expiry sweeps, usage
report rollups, lease heartbeats, and fault triggers.  The foreground code
advances the clock through :class:`repro.sim.world.World`, which fires due
events.

The queue is a plain min-heap of :class:`ScheduledEvent` records ordered
by ``(time, seq)``; cancellation flags an event and the heap drops it when
it surfaces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.clock import Clock

__all__ = ["ScheduledEvent", "RepeatingEvent", "EventStats", "Scheduler"]


@dataclass(order=True)
class ScheduledEvent:
    """A callback due at an absolute virtual time.

    Ordering is (time, seq) so same-time events fire in scheduling order.
    """

    time: float
    seq: int
    callback: Callable[[], Any] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the event from firing."""
        self.cancelled = True


class RepeatingEvent:
    """A callback re-armed every ``interval`` seconds until cancelled.

    The worker pool's lease heartbeats use this: each firing re-schedules
    the next one, so renewals keep pace with however far a foreground
    transfer advances the clock.  ``cancel`` stops the chain.
    """

    def __init__(self, scheduler: "Scheduler", interval: float,
                 callback: Callable[[], Any], label: str = "") -> None:
        if interval <= 0:
            raise ValueError(f"repeat interval must be positive (got {interval})")
        self._scheduler = scheduler
        self.interval = interval
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = 0
        self._current = scheduler.after(interval, self._fire, label)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired += 1
        self.callback()
        if not self.cancelled:
            self._current = self._scheduler.after(self.interval, self._fire, self.label)

    def cancel(self) -> None:
        """Stop the chain; the pending occurrence never fires."""
        self.cancelled = True
        self._current.cancel()


class EventStats:
    """Firing counters.

    ``batched_events`` counts firings that shared their timestamp with
    another event already queued when the first of them fired (a
    same-time group); events a callback schedules at ``now`` start a new
    group, because they fire after the group that scheduled them.
    """

    __slots__ = ("total_events", "batched_events")

    def __init__(self) -> None:
        self.total_events = 0
        self.batched_events = 0


class Scheduler:
    """Heap-ordered event queue, driven by a :class:`Clock`."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._heap: list[ScheduledEvent] = []
        self._seq = 0
        self.stats = EventStats()
        # the same-time group the last fired event belonged to: its
        # timestamp, the first seq scheduled after it began, its size
        self._group_time = -1.0
        self._group_end = 0
        self._group_size = 0

    def at(self, time: float, callback: Callable[[], Any], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute virtual time ``time``."""
        if time < self._clock._now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._clock._now}"
            )
        ev = ScheduledEvent(time=time, seq=self._seq, callback=callback, label=label)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def after(self, delay: float, callback: Callable[[], Any], label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        return self.at(self._clock._now + delay, callback, label)

    def every(self, interval: float, callback: Callable[[], Any],
              label: str = "") -> RepeatingEvent:
        """Schedule ``callback`` every ``interval`` seconds until cancelled."""
        return RepeatingEvent(self, interval, callback, label)

    @property
    def next_due(self) -> float | None:
        """Time of the earliest pending event, or None when empty."""
        self._drop_cancelled()
        return self._heap[0].time if self._heap else None

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for ev in self._heap if not ev.cancelled)

    def fire_due(self) -> int:
        """Run every event whose time is <= now; return how many fired.

        The heap is re-read after every callback, so a callback may
        schedule, cancel, advance the clock or call ``fire_due`` itself.
        """
        heap = self._heap
        fired = 0
        while True:
            self._drop_cancelled()
            if not heap or heap[0].time > self._clock._now:
                return fired
            ev = heapq.heappop(heap)
            self._count(ev)
            ev.callback()
            fired += 1

    def _count(self, ev: ScheduledEvent) -> None:
        stats = self.stats
        stats.total_events += 1
        if ev.time == self._group_time and ev.seq < self._group_end:
            self._group_size += 1
            # the group's first event was counted alone until now
            stats.batched_events += 2 if self._group_size == 2 else 1
        else:
            self._group_time = ev.time
            self._group_end = self._seq
            self._group_size = 1
