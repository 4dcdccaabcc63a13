"""The SLO engine: burn-rate math, alerting, and event wiring."""

import pytest

from repro.sim.world import World
from repro.telemetry.slo import (
    BurnWindow,
    ServiceObjective,
    SLOEngine,
    default_slos,
    wire_slos,
)

#: a tight two-window objective for direct unit exercises
TIGHT = ServiceObjective(
    name="probe",
    description="99% of probes succeed",
    objective=0.99,
    windows=(BurnWindow(100.0, 6.0), BurnWindow(400.0, 3.0)),
    min_events=10,
)


def _engine(world, spec=TIGHT):
    return SLOEngine(world, [spec])


def test_burn_rate_math():
    world = World(seed=1)
    eng = _engine(world)
    # 50 good + 2 bad in-window: error rate 2/52, budget 0.01
    eng.record("probe", good=50)
    eng.record("probe", bad=2)
    expected = (2 / 52) / 0.01
    g = world.metrics.get("slo_burn_rate")
    assert g.value(slo="probe", window="100s") == pytest.approx(expected)
    assert g.value(slo="probe", window="400s") == pytest.approx(expected)
    budget = world.metrics.get("slo_error_budget_remaining")
    assert budget.value(slo="probe") == pytest.approx(1.0 - expected)


def test_alert_fires_only_when_all_windows_burn():
    world = World(seed=1, trace=True)
    eng = _engine(world)
    # 9 bad of 9: far past threshold, but below min_events — no alert
    eng.record("probe", good=0, bad=9)
    assert not eng.alert_active("probe")
    eng.record("probe", bad=1, trace_id="trace-0042")
    assert eng.alert_active("probe")
    fired = world.log.select("slo.alert_fired")
    assert len(fired) == 1
    assert fired[0].fields["slo"] == "probe"
    assert fired[0].fields["exemplar_trace"] == "trace-0042"
    assert world.metrics.get("slo_alert_active").value(slo="probe") == 1
    assert world.metrics.get("slo_alerts_total").value(slo="probe") == 1
    # a second evaluation while firing does not re-fire
    eng.record("probe", bad=1)
    assert len(world.log.select("slo.alert_fired")) == 1


def test_alert_clears_when_fast_window_recovers():
    world = World(seed=1, trace=True)
    eng = _engine(world)
    eng.record("probe", bad=10)
    assert eng.alert_active("probe")
    # advance past the fast window so the bad samples age out of it,
    # then feed good traffic: the fast burn drops below threshold
    world.advance(150.0)
    eng.record("probe", good=50)
    assert not eng.alert_active("probe")
    cleared = world.log.select("slo.alert_cleared")
    assert len(cleared) == 1
    assert world.metrics.get("slo_alert_active").value(slo="probe") == 0


def test_windows_prune_on_virtual_time():
    world = World(seed=1)
    eng = _engine(world)
    eng.record("probe", bad=10)
    world.advance(500.0)  # past both windows
    eng.record("probe", good=1)
    g = world.metrics.get("slo_burn_rate")
    assert g.value(slo="probe", window="100s") == 0.0
    assert g.value(slo="probe", window="400s") == 0.0


def test_observe_latency_splits_on_threshold():
    world = World(seed=1)
    spec = ServiceObjective(
        name="wait", description="fast waits", objective=0.9,
        threshold_s=60.0, min_events=1,
        windows=(BurnWindow(100.0, 1.0),))
    eng = _engine(world, spec)
    eng.observe_latency("wait", 59.9)
    eng.observe_latency("wait", 60.0)  # inclusive: still good
    eng.observe_latency("wait", 60.1, trace_id="trace-0007")
    c = world.metrics.get("slo_events_total")
    assert c.value(slo="wait", outcome="good") == 2
    assert c.value(slo="wait", outcome="bad") == 1
    assert eng.status()[0]["exemplar_trace"] == "trace-0007"
    with pytest.raises(ValueError):
        _engine(World(seed=1)).observe_latency("probe", 1.0)  # no threshold


def test_status_rows():
    world = World(seed=1)
    eng = _engine(world)
    eng.record("probe", good=99, bad=1)  # burn 1x: under both thresholds
    (row,) = eng.status()
    assert row["slo"] == "probe"
    assert row["good"] == 99
    assert row["bad"] == 1
    assert row["alert"] is False
    assert set(row["burn"]) == {"100s", "400s"}


def test_declaration_validation():
    with pytest.raises(ValueError):
        ServiceObjective(name="x", description="", objective=1.0)
    with pytest.raises(ValueError):
        ServiceObjective(name="x", description="", objective=0.9, windows=())
    with pytest.raises(ValueError):
        BurnWindow(0.0, 1.0)
    with pytest.raises(ValueError):
        BurnWindow(10.0, 0.0)
    world = World(seed=1)
    with pytest.raises(ValueError):
        SLOEngine(world, [TIGHT, TIGHT])  # duplicate names
    eng = _engine(World(seed=1))
    with pytest.raises(KeyError):
        eng.record("unknown", good=1)
    with pytest.raises(ValueError):
        eng.record("probe", good=-1)
    eng.record("probe")  # zero-sample call is a no-op
    assert eng.status()[0]["good"] == 0


def test_default_slos_cover_the_issue_objectives():
    specs = default_slos()
    assert {s.name for s in specs} == {
        "queue_wait_p99", "transfer_success", "retry_budget", "lease_expiry"}
    wait = next(s for s in specs if s.name == "queue_wait_p99")
    assert wait.threshold_s == 600.0
    assert default_slos(queue_wait_slo_s=42.0)[0].threshold_s == 42.0


def test_wire_slos_feeds_from_scheduler_events():
    world = World(seed=1)
    eng = SLOEngine(world, default_slos(queue_wait_slo_s=100.0))
    wire_slos(world, eng)
    c = world.metrics.get("slo_events_total")
    world.emit("scheduler.claimed", "c", task="t", worker="w0",
               attempt=1, wait_s=50.0, trace="trace-0001")
    assert c.value(slo="queue_wait_p99", outcome="good") == 1
    assert c.value(slo="lease_expiry", outcome="good") == 1
    world.emit("scheduler.claimed", "c", task="t", worker="w0",
               attempt=2, wait_s=500.0, trace="trace-0001")
    assert c.value(slo="queue_wait_p99", outcome="bad") == 1
    world.emit("scheduler.task_done", "d", task="t", user="u",
               bytes=1, attempts=1)
    assert c.value(slo="transfer_success", outcome="good") == 1
    world.emit("scheduler.task_failed", "f", task="t", error="x",
               trace="trace-0001")
    assert c.value(slo="transfer_success", outcome="bad") == 1
    world.emit("scheduler.lease_expired", "e", task="t", worker="w0",
               attempt=1, trace="trace-0001")
    assert c.value(slo="lease_expiry", outcome="bad") == 1
    world.emit("recovery.succeeded", "s", component="x", attempts=3,
               faults_survived=2, backoff_s=1.0)
    assert c.value(slo="retry_budget", outcome="good") == 1
    assert c.value(slo="retry_budget", outcome="bad") == 2
    world.emit("recovery.exhausted", "x", component="x", attempts=4, error="E")
    assert c.value(slo="retry_budget", outcome="bad") == 6


def test_wire_slos_tolerates_subset_of_objectives():
    world = World(seed=1)
    eng = SLOEngine(world, [TIGHT])
    wire_slos(world, eng)
    # none of the default names exist; scheduler events must not raise
    world.emit("scheduler.claimed", "c", task="t", worker="w0",
               attempt=1, wait_s=50.0, trace=None)
    world.emit("scheduler.task_done", "d", task="t", user="u",
               bytes=1, attempts=1)
    assert world.log.subscriber_errors == 0


def test_engine_is_deterministic_over_virtual_time():
    def run():
        world = World(seed=9, trace=True)
        eng = _engine(world)
        for i in range(30):
            world.advance(7.0)
            eng.record("probe", good=2, bad=1 if i % 3 == 0 else 0,
                       trace_id=f"trace-{i:04d}")
        return (
            [ev.to_dict() for ev in world.log.select("slo.")],
            eng.status(),
        )

    assert run() == run()
