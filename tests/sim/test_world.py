"""The World container."""

from repro.sim.world import World


def test_world_has_all_components():
    w = World(seed=7, trace=True)
    assert w.clock.now == 0.0
    assert w.network is not None
    assert w.faults is not None
    assert len(w.log) == 0


def test_advance_fires_scheduler():
    w = World()
    fired = []
    w.scheduler.at(5.0, lambda: fired.append(1))
    w.advance(10.0)
    assert fired == [1]


def test_advance_to_fires_scheduler():
    w = World()
    fired = []
    w.scheduler.at(5.0, lambda: fired.append(1))
    w.advance_to(6.0)
    assert fired == [1]


def test_emit_stamps_current_time():
    w = World(trace=True)
    w.advance(3.5)
    ev = w.emit("cat", "msg", k=1)
    assert ev.time == 3.5
    assert w.log.count("cat") == 1


def test_now_property_tracks_clock():
    w = World(start_time=100.0)
    assert w.now == 100.0
    w.advance(1.0)
    assert w.now == 101.0


def test_same_seed_same_streams():
    a, b = World(seed=9), World(seed=9)
    assert a.rng.python("x").random() == b.rng.python("x").random()


def test_different_seeds_differ():
    a, b = World(seed=1), World(seed=2)
    assert a.rng.python("x").random() != b.rng.python("x").random()
