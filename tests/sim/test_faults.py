"""Fault plan queries."""

import math

import pytest

from repro.sim.faults import Fault, FaultPlan


def test_link_down_window_is_half_open():
    plan = FaultPlan()
    plan.cut_link("l1", at=10.0, duration=5.0)
    assert not plan.link_down("l1", 9.999)
    assert plan.link_down("l1", 10.0)
    assert plan.link_down("l1", 14.999)
    assert not plan.link_down("l1", 15.0)


def test_host_down():
    plan = FaultPlan()
    plan.crash_host("dtn1", at=0.0, duration=1.0)
    assert plan.host_down("dtn1", 0.5)
    assert not plan.host_down("dtn2", 0.5)


def test_zero_duration_rejected():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.cut_link("l1", at=0.0, duration=0.0)
    with pytest.raises(ValueError):
        plan.crash_host("h", at=0.0, duration=-1.0)


_SCHEDULE = {
    "cut_link": lambda plan, at, duration: plan.cut_link("l1", at, duration),
    "crash_host": lambda plan, at, duration: plan.crash_host("h1", at, duration),
    "drop_control": lambda plan, at, duration: plan.drop_control("h1", at, duration),
    "degrade_link": lambda plan, at, duration: plan.degrade_link("l1", at, duration, 0.5),
}


@pytest.mark.parametrize("kind", sorted(_SCHEDULE))
def test_nan_duration_rejected(kind):
    plan = FaultPlan()
    with pytest.raises(ValueError, match="duration"):
        _SCHEDULE[kind](plan, 5.0, math.nan)
    assert plan.faults() == () and plan.version == 0


@pytest.mark.parametrize("start", [math.nan, -math.inf, math.inf], ids=["nan", "-inf", "inf"])
@pytest.mark.parametrize("kind", sorted(_SCHEDULE))
def test_start_that_is_not_finite_rejected(kind, start):
    plan = FaultPlan()
    with pytest.raises(ValueError, match="start"):
        _SCHEDULE[kind](plan, start, 5.0)
    assert plan.faults() == () and plan.version == 0


def test_a_fault_may_last_for_ever():
    plan = FaultPlan()
    plan.crash_host("h1", 3.0, math.inf)
    assert plan.host_down("h1", 1e12) and not plan.host_down("h1", 2.0)
    assert plan.next_clear_time((), ("h1",), 3.0) == math.inf


def test_every_accepted_mutation_bumps_the_version():
    plan = FaultPlan()
    assert plan.version == 0
    for kind in sorted(_SCHEDULE):
        before = plan.version
        _SCHEDULE[kind](plan, 1.0, 2.0)
        assert plan.version == before + 1
        with pytest.raises(ValueError):
            _SCHEDULE[kind](plan, 1.0, 0.0)
        assert plan.version == before + 1
    plan.clear()
    assert plan.version == 5
    plan.clear()
    assert plan.version == 6


def test_first_interruption_finds_earliest():
    plan = FaultPlan()
    plan.cut_link("l1", at=50.0, duration=10.0)
    plan.cut_link("l2", at=30.0, duration=10.0)
    plan.crash_host("h1", at=40.0, duration=10.0)
    t = plan.first_interruption(["l1", "l2"], ["h1"], start=0.0, end=100.0)
    assert t == 30.0


def test_first_interruption_ignores_unrelated_resources():
    plan = FaultPlan()
    plan.cut_link("other", at=10.0, duration=5.0)
    assert plan.first_interruption(["l1"], ["h1"], 0.0, 100.0) is None


def test_first_interruption_outside_window():
    plan = FaultPlan()
    plan.cut_link("l1", at=200.0, duration=5.0)
    assert plan.first_interruption(["l1"], [], 0.0, 100.0) is None


def test_fault_already_active_counts_at_window_start():
    plan = FaultPlan()
    plan.cut_link("l1", at=0.0, duration=100.0)
    assert plan.first_interruption(["l1"], [], 50.0, 60.0) == 50.0


def test_next_clear_time_skips_overlapping_outages():
    plan = FaultPlan()
    plan.cut_link("l1", at=10.0, duration=10.0)  # [10, 20)
    plan.cut_link("l1", at=18.0, duration=10.0)  # [18, 28)
    plan.crash_host("h1", at=27.0, duration=5.0)  # [27, 32)
    assert plan.next_clear_time(["l1"], ["h1"], 12.0) == 32.0


def test_next_clear_time_when_already_clear():
    plan = FaultPlan()
    plan.cut_link("l1", at=10.0, duration=5.0)
    assert plan.next_clear_time(["l1"], [], 5.0) == 5.0


def test_clear_removes_all():
    plan = FaultPlan()
    plan.cut_link("l1", at=1.0, duration=1.0)
    plan.crash_host("h", at=1.0, duration=1.0)
    plan.clear()
    assert plan.faults() == ()
    assert plan.faults("link") == plan.faults("host") == ()


def test_link_fault_accessors():
    f = Fault("link", "x", start=3.0, duration=2.0)
    assert f.end == 5.0
    assert f.active_at(3.0) and f.active_at(4.9) and not f.active_at(5.0)


def test_constructors_record_kind_target_and_factor():
    plan = FaultPlan()
    cut = plan.cut_link("l1", at=1.0, duration=2.0)
    crash = plan.crash_host("h", at=2.0, duration=1.0)
    drop = plan.drop_control("h", at=3.0, duration=1.0)
    slow = plan.degrade_link("l1", at=4.0, duration=5.0, factor=0.25)
    assert cut == Fault("link", "l1", 1.0, 2.0)
    assert crash == Fault("host", "h", 2.0, 1.0)
    assert drop == Fault("control", "h", 3.0, 1.0)
    assert slow == Fault("degradation", "l1", 4.0, 5.0, 0.25)
    assert cut.factor == crash.factor == drop.factor == 1.0
    assert plan.faults() == (cut, crash, drop, slow)
    assert plan.faults("host") == (crash,)
    assert plan.faults("degradation") == (slow,)
    with pytest.raises(ValueError):
        plan.faults("link_flap")  # a chaos label, not a fault kind


def test_bad_degradation_factor_rejected():
    plan = FaultPlan()
    for factor in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            plan.degrade_link("l1", at=0.0, duration=1.0, factor=factor)
    assert plan.faults() == ()


def test_faulted_filters_the_route_and_follows_every_mutation():
    plan = FaultPlan()
    route = (("l1", "l2"), ("a", "r", "b"))
    assert plan.faulted(*route) == ((), (), ())
    plan.cut_link("l1", at=5.0, duration=1.0)
    assert plan.faulted(*route) == (("l1",), (), ())
    plan.crash_host("b", at=5.0, duration=1.0)
    plan.drop_control("a", at=5.0, duration=1.0)  # not a host outage
    assert plan.faulted(*route) == (("l1",), ("b",), ())
    plan.degrade_link("l2", at=5.0, duration=1.0, factor=0.5)
    assert plan.faulted(*route) == (("l1",), ("b",), ("l2",))
    assert plan.faulted(("l3",), ("c",)) == ((), (), ())
    assert plan.has_control_faults("a") and not plan.has_control_faults("b")
    plan.clear()
    assert plan.faulted(*route) == ((), (), ())
    assert not plan.has_control_faults("a")
