"""Scheduler."""

import pytest

from repro.sim.clock import Clock
from repro.sim.events import Scheduler


def make():
    clock = Clock()
    return clock, Scheduler(clock)


def test_fire_due_runs_past_events_in_order():
    clock, sched = make()
    fired = []
    sched.at(5.0, lambda: fired.append("b"))
    sched.at(1.0, lambda: fired.append("a"))
    clock.advance(10.0)
    assert sched.fire_due() == 2
    assert fired == ["a", "b"]


def test_events_in_future_do_not_fire():
    clock, sched = make()
    fired = []
    sched.at(5.0, lambda: fired.append(1))
    clock.advance(4.999)
    assert sched.fire_due() == 0
    assert fired == []


def test_same_time_events_fire_in_scheduling_order():
    clock, sched = make()
    fired = []
    sched.at(1.0, lambda: fired.append("first"))
    sched.at(1.0, lambda: fired.append("second"))
    clock.advance(1.0)
    sched.fire_due()
    assert fired == ["first", "second"]


def test_after_is_relative():
    clock, sched = make()
    clock.advance(100.0)
    fired = []
    sched.after(5.0, lambda: fired.append(1))
    clock.advance(5.0)
    sched.fire_due()
    assert fired == [1]


def test_cannot_schedule_in_the_past():
    clock, sched = make()
    clock.advance(10.0)
    with pytest.raises(ValueError):
        sched.at(5.0, lambda: None)


def test_cancelled_events_do_not_fire():
    clock, sched = make()
    fired = []
    ev = sched.at(1.0, lambda: fired.append(1))
    ev.cancel()
    clock.advance(2.0)
    assert sched.fire_due() == 0
    assert fired == []


def test_next_due_and_pending():
    clock, sched = make()
    assert sched.next_due is None
    a = sched.at(3.0, lambda: None, label="a")
    sched.at(7.0, lambda: None, label="b")
    assert sched.next_due == 3.0
    assert sched.pending() == 2
    a.cancel()
    assert sched.next_due == 7.0
    assert sched.pending() == 1


def test_event_scheduled_at_now_fires_after_the_same_time_group():
    clock, sched = make()
    fired = []

    def first():
        fired.append("a")
        sched.at(clock.now, lambda: fired.append("nested"))

    sched.at(1.0, first)
    sched.at(1.0, lambda: fired.append("b"))
    sched.at(1.0, lambda: fired.append("c"))
    clock.advance(1.0)
    assert sched.fire_due() == 4
    assert fired == ["a", "b", "c", "nested"]
    # the nested event was not queued when the group began: it fires alone
    assert sched.stats.total_events == 4
    assert sched.stats.batched_events == 3


def test_callback_cancelling_an_unfired_same_time_event_suppresses_it():
    clock, sched = make()
    fired = []
    handles = {}

    def first():
        fired.append("a")
        handles["b"].cancel()

    sched.at(1.0, first)
    handles["b"] = sched.at(1.0, lambda: fired.append("b"))
    sched.at(1.0, lambda: fired.append("c"))
    clock.advance(1.0)
    assert sched.fire_due() == 2
    assert fired == ["a", "c"]
    assert sched.pending() == 0


def test_reentrant_fire_due_fires_nothing_twice_and_keeps_order():
    clock, sched = make()
    fired = []

    def advancing():
        fired.append(("a", clock.now))
        clock.advance(1.0)
        sched.fire_due()

    def record(key):
        return lambda: fired.append((key, clock.now))

    sched.at(1.0, advancing)
    sched.at(2.0, record("d"))
    sched.at(1.0, record("b"))
    sched.at(1.5, record("c"))
    sched.at(3.0, record("e"))
    clock.advance(1.0)
    assert sched.fire_due() == 1  # b, c and d fired in the nested call
    assert fired == [("a", 1.0), ("b", 2.0), ("c", 2.0), ("d", 2.0)]
    assert sched.next_due == 3.0
    assert sched.fire_due() == 0


def test_stats_count_a_same_time_group_and_a_lone_event():
    clock, sched = make()
    for _ in range(3):
        sched.at(1.0, lambda: None)
    sched.at(2.0, lambda: None)
    clock.advance(5.0)
    assert sched.fire_due() == 4
    assert sched.stats.total_events == 4
    assert sched.stats.batched_events == 3
