"""The flight recorder: per-task causal records folded from the event log."""

import json

import pytest

from repro.errors import TelemetryNotRecordedError, TransferFaultError
from repro.recovery.engine import RecoveryEngine
from repro.recovery.policy import RetryPolicy
from repro.scheduler import FleetScheduler, ScheduledTask, SchedulerConfig
from repro.sim.world import World
from repro.telemetry.flightrecorder import EVENTS_PER_RECORD, FlightRecorder


def _task(world, i, user=None, duration_s=5.0, src="alcf#dtn", dst="nersc#dtn"):
    def run():
        world.advance(duration_s)
    return ScheduledTask(
        task_id=f"task-{i:06d}", user=user or f"user{i % 3}",
        src_endpoint=src, dst_endpoint=dst,
        size_hint=(i + 1) * 1_000_000, execute=run,
    )


def _drain(world, n_tasks=6, **config):
    sched = FleetScheduler(world, SchedulerConfig(
        workers=2, batch_threshold_bytes=0, **config))
    for i in range(n_tasks):
        sched.submit(_task(world, i))
    sched.run_until_idle()
    return sched


def test_records_assemble_full_lifecycle():
    world = World(seed=7, trace=True)
    rec, _ = world.enable_observability()
    _drain(world)
    assert len(rec) == 6
    r = rec.record("task-000002")
    assert r is not None
    assert r.complete
    assert r.status == "done"
    assert r.user == "user2"
    assert r.src_endpoint == "alcf#dtn"
    assert r.dst_endpoint == "nersc#dtn"
    assert r.submitted_at is not None
    assert r.claimed_at is not None
    assert r.completed_at is not None
    assert r.queue_wait_s == r.claimed_at - r.submitted_at
    assert r.total_s == r.completed_at - r.submitted_at
    assert r.delivered_bytes == 3_000_000
    assert r.attempts == 1
    assert r.lane_vtime is not None
    # the causal chain is in order: submitted -> claimed -> dispatch -> done
    kinds = [ev.kind for ev in r.events]
    for expected in ("scheduler.submitted", "scheduler.claimed",
                     "scheduler.dispatch", "scheduler.task_done"):
        assert expected in kinds
    assert kinds.index("scheduler.submitted") < kinds.index("scheduler.claimed")
    assert kinds.index("scheduler.claimed") < kinds.index("scheduler.task_done")


def test_exemplar_trace_resolves_to_record():
    world = World(seed=7, trace=True)
    rec, _ = world.enable_observability()
    _drain(world)
    # every queue-wait exemplar must resolve through the recorder
    h = world.metrics.get("scheduler_queue_wait_seconds")
    exemplars = h.exemplars()
    assert exemplars, "queue-wait histogram captured no exemplars"
    for ex in exemplars.values():
        record = rec.by_trace(ex.trace_id)
        assert record is not None
        assert record.trace_id == ex.trace_id
        assert record.complete


def test_queries_by_user_endpoint_and_slowness():
    world = World(seed=7, trace=True)
    rec, _ = world.enable_observability()
    _drain(world)
    assert {r.task_id for r in rec.for_user("user0")} == {
        "task-000000", "task-000003"}
    assert len(rec.for_endpoint("nersc#dtn")) == 6
    assert rec.for_endpoint("absent#dtn") == []
    slowest = rec.slowest(2, by="total_s")
    assert len(slowest) == 2
    assert slowest[0].total_s >= slowest[1].total_s
    waits = rec.slowest(3, by="queue_wait_s")
    assert waits[0].queue_wait_s >= waits[-1].queue_wait_s
    with pytest.raises(ValueError):
        rec.slowest(3, by="bogus")


def test_per_record_event_bound_counts_drops():
    world = World(seed=3, trace=True)
    recorder = FlightRecorder(world)
    world.emit("scheduler.submitted", "q", task="t", user="u")
    for _ in range(EVENTS_PER_RECORD + 2):
        world.emit("scheduler.claimed", "c", task="t", worker="w0", attempt=1)
    r = recorder.record("t")
    assert len(r.events) == EVENTS_PER_RECORD
    assert r.dropped_events == 3


def test_recorder_built_after_the_drain_sees_the_same_records():
    world = World(seed=7, trace=True)
    world.enable_observability()
    _drain(world)
    late = FlightRecorder(world)
    assert len(late) == 6
    assert late.to_jsonl() == world.flight_recorder.to_jsonl()
    # reads between events share one fold; a new event refolds
    assert late.record("task-000000") is late.record("task-000000")
    world.emit("scheduler.submitted", "q", task="late", user="u")
    assert late.record("late").user == "u"
    assert len(late) == 7


def test_only_the_slo_engine_subscribes_to_the_log():
    world = World(seed=7, trace=True)
    world.enable_observability()
    assert len(world.log._subscribers) == 1
    assert world.log._subscribers[0].__qualname__ == "wire_slos.<locals>.on_event"


def test_event_capacity_bounds_the_records():
    # an unbounded twin finds where task-000001's submit lands in the log
    full = World(seed=7, trace=True)
    _drain(full)
    events = list(full.log)
    kept = len(events) - next(
        i for i, ev in enumerate(events)
        if ev.category == "scheduler.submitted"
        and ev.fields["task"] == "task-000001")
    world = World(seed=7, trace=True, event_capacity=kept)
    recorder = FlightRecorder(world)
    _drain(world)
    assert world.log.dropped_events > 0
    first = recorder.record("task-000000")
    assert first.submitted_at is None
    assert not first.complete
    for i in range(1, 6):
        assert recorder.record(f"task-{i:06d}").complete


def test_reading_records_needs_a_traced_world():
    recorder = FlightRecorder(World(seed=3))
    with pytest.raises(TelemetryNotRecordedError, match=r"trace=True"):
        len(recorder)


def test_lease_expiry_flips_status_back_to_queued():
    world = World(seed=11, trace=True)
    rec, _ = world.enable_observability()
    # the crash begins inside the first lease window, so the initial
    # claim is abandoned, the lease lapses, and the task requeues
    world.faults.crash_host("wh-0", 5.0, 30.0)
    sched = FleetScheduler(world, SchedulerConfig(
        workers=1, worker_hosts=("wh-0",), lease_s=10.0, heartbeat_s=2.0,
        batch_threshold_bytes=0))
    sched.submit(_task(world, 0, duration_s=3.0))
    sched.run_until_idle()
    r = rec.record("task-000000")
    assert r.status == "done"
    assert r.attempts >= 2
    assert r.events_of("scheduler.lease_expired")
    # requeue cost shows up as multiple claims
    assert len(r.events_of("scheduler.claimed")) >= 2


def test_recovery_events_attach_via_dispatch_trace():
    world = World(seed=5, trace=True)
    rec, _ = world.enable_observability()
    engine = RecoveryEngine(world, RetryPolicy(
        max_attempts=3, initial_backoff_s=1.0, jitter=0.0), component="test")
    calls = {"n": 0}

    def flaky(attempt):
        calls["n"] += 1
        if calls["n"] < 2:
            raise TransferFaultError("boom", at_time=world.now)
        return "ok"

    def payload():
        engine.run(flaky, describe="flaky op")

    sched = FleetScheduler(world, SchedulerConfig(
        workers=1, batch_threshold_bytes=0))
    sched.submit(ScheduledTask(
        task_id="task-000000", user="u", src_endpoint="a#d", dst_endpoint="b#d",
        size_hint=1, execute=payload))
    sched.run_until_idle()
    r = rec.record("task-000000")
    assert r.status == "done"
    assert r.recovery_faults == 1
    assert r.events_of("recovery.fault")
    assert r.events_of("recovery.succeeded")
    # the claim trace was bound alongside the submit trace
    assert len(r.trace_ids) >= 2
    for tid in r.trace_ids:
        assert rec.by_trace(tid) is r


def test_rejections_land_in_side_channel():
    world = World(seed=2, trace=True)
    rec, _ = world.enable_observability()
    from repro.errors import QueueFullError
    from repro.scheduler.limits import SchedulerLimits
    sched = FleetScheduler(world, SchedulerConfig(
        workers=1, batch_threshold_bytes=0,
        limits=SchedulerLimits(max_queue_depth=1)))
    sched.submit(_task(world, 0))
    with pytest.raises(QueueFullError):
        sched.submit(_task(world, 1))
    assert len(rec.rejections) == 1
    assert rec.rejections[0].detail["reason"] == "queue_full"
    # the rejected submission never became a record
    assert rec.record("task-000001") is None


def test_jsonl_dump_roundtrips(tmp_path):
    world = World(seed=7, trace=True)
    rec, _ = world.enable_observability()
    _drain(world)
    path = tmp_path / "flight.jsonl"
    written = rec.dump(str(path))
    assert written == 6
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    rows = [json.loads(line) for line in lines]
    by_id = {row["task_id"]: row for row in rows}
    r = rec.record("task-000004")
    row = by_id["task-000004"]
    assert row["status"] == "done"
    assert row["trace_id"] == r.trace_id
    assert row["queue_wait_s"] == pytest.approx(r.queue_wait_s)
    assert row["events"][0]["kind"] == "scheduler.submitted"


def test_determinism_across_identical_runs():
    def run():
        world = World(seed=13, trace=True)
        rec, _ = world.enable_observability()
        _drain(world)
        return rec.to_jsonl()

    assert run() == run()


def test_enable_observability_is_idempotent():
    world = World(seed=1, trace=True)
    pair1 = world.enable_observability()
    pair2 = world.enable_observability()
    assert pair1[0] is pair2[0]
    assert pair1[1] is pair2[1]
