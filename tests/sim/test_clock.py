"""Virtual clock."""

import math

import pytest

from repro.sim.clock import Clock


def test_starts_at_given_time():
    assert Clock().now == 0.0
    assert Clock(100.0).now == 100.0


def test_advance_accumulates():
    c = Clock()
    c.advance(1.5)
    c.advance(2.5)
    assert c.now == 4.0


def test_advance_returns_new_time():
    c = Clock(10.0)
    assert c.advance(5.0) == 15.0


def test_negative_advance_rejected():
    c = Clock()
    with pytest.raises(ValueError):
        c.advance(-0.001)


def test_advance_to_moves_forward_only():
    c = Clock(10.0)
    c.advance_to(20.0)
    assert c.now == 20.0
    c.advance_to(5.0)  # in the past: no-op, not an error
    assert c.now == 20.0


def test_zero_advance_allowed():
    c = Clock(3.0)
    c.advance(0.0)
    assert c.now == 3.0


def test_nan_advance_rejected_and_the_clock_keeps_its_time():
    c = Clock(7.0)
    with pytest.raises(ValueError):
        c.advance(math.nan)
    assert c.now == 7.0
    assert c.advance(5.0) == 12.0
    assert c.advance_to(100.0) == 100.0
