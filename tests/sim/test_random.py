"""Deterministic RNG streams."""

from repro.sim.random import RngFactory


def test_named_streams_are_independent():
    f = RngFactory(1)
    a = f.python("alpha")
    b = f.python("beta")
    seq_a = [a.random() for _ in range(5)]
    seq_b = [b.random() for _ in range(5)]
    assert seq_a != seq_b


def test_same_name_reproduces_sequence():
    f = RngFactory(1)
    first = [f.python("s").random() for _ in range(3)]
    second = [f.python("s").random() for _ in range(3)]
    assert first == second


def test_seed_property():
    assert RngFactory(77).seed == 77
