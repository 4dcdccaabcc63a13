"""Unit tests for leases, heartbeats, and the worker pool."""

import pytest

from repro.errors import LeaseLostError, SchedulerError
from repro.scheduler import (
    FleetScheduler,
    LeaseTable,
    ScheduledTask,
    SchedulerConfig,
    SchedulerLimits,
    TaskState,
)
from repro.sim.faults import ChaosConfig


def mk(world, user="alice", size=1000, duration_s=5.0, task_id="", log=None):
    def run():
        world.advance(duration_s)
        if log is not None:
            log.append(task_id or f"{user}-{size}")
        return size

    return ScheduledTask(
        task_id=task_id,
        user=user,
        src_endpoint="ep-a",
        dst_endpoint="ep-b",
        size_hint=size,
        execute=run,
        measure=lambda r: r,
    )


# -- LeaseTable ------------------------------------------------------------


def test_lease_grant_renew_release():
    table = LeaseTable()
    task = ScheduledTask(task_id="t1", user="a", src_endpoint="s",
                         dst_endpoint="d", size_hint=1, execute=lambda: None)
    lease = table.grant(task, "w0", now=0.0, lease_s=60.0)
    assert not lease.expired(59.0) and lease.expired(60.0)
    assert table.renew(lease, now=50.0, lease_s=60.0)
    assert not lease.expired(100.0)
    table.release(lease)
    assert len(table) == 0


def test_double_lease_is_a_bug():
    table = LeaseTable()
    task = ScheduledTask(task_id="t1", user="a", src_endpoint="s",
                         dst_endpoint="d", size_hint=1, execute=lambda: None)
    table.grant(task, "w0", now=0.0, lease_s=60.0)
    with pytest.raises(LeaseLostError):
        table.grant(task, "w1", now=0.0, lease_s=60.0)


def test_lapsed_lease_cannot_renew():
    table = LeaseTable()
    task = ScheduledTask(task_id="t1", user="a", src_endpoint="s",
                         dst_endpoint="d", size_hint=1, execute=lambda: None)
    lease = table.grant(task, "w0", now=0.0, lease_s=10.0)
    assert not table.renew(lease, now=10.0, lease_s=10.0)


# -- FleetScheduler --------------------------------------------------------


def test_drains_everything_once(world):
    sched = FleetScheduler(world, SchedulerConfig(workers=2))
    log = []
    for i in range(7):
        sched.submit(mk(world, task_id=f"t{i}", log=log))
    assert sched.run_until_idle() == 7
    assert sorted(log) == [f"t{i}" for i in range(7)]
    assert len(sched.queue) == 0 and len(sched.leases) == 0


def test_heartbeat_outlives_long_executions(world):
    # execution takes 10x the lease: heartbeats must keep renewing so the
    # claim is never reclaimed mid-flight.
    sched = FleetScheduler(world, SchedulerConfig(
        workers=1, lease_s=30.0, heartbeat_s=5.0))
    sched.submit(mk(world, duration_s=300.0, task_id="slow"))
    assert sched.run_until_idle() == 1
    assert world.metrics.counter("scheduler_lease_expirations_total").value() == 0


def test_crashed_worker_requeues_task(world):
    world.chaos.configure(ChaosConfig(
        host_crash_every_s=50.0, host_downtime_s=(30.0, 60.0), horizon_s=3600.0))
    world.chaos.arm(hosts=["w-host"])
    sched = FleetScheduler(world, SchedulerConfig(
        workers=2, worker_hosts=("w-host",), lease_s=20.0, heartbeat_s=5.0))
    log = []
    for i in range(10):
        sched.submit(mk(world, task_id=f"t{i}", log=log, duration_s=10.0))
    assert sched.run_until_idle() == 10
    # every task executed exactly once despite crashes
    assert sorted(log) == [f"t{i}" for i in range(10)]
    crashes = world.metrics.counter("scheduler_worker_crashes_total").value()
    requeues = world.metrics.counter("scheduler_requeued_total").value()
    assert crashes >= 1 and requeues >= crashes


def test_all_workers_dead_is_a_stall(world):
    # one worker whose host is down forever and a task that can never run
    world.faults.crash_host("w-host", 0.0, float("inf"))
    sched = FleetScheduler(world, SchedulerConfig(
        workers=1, worker_hosts=("w-host",)))
    sched.submit(mk(world))
    with pytest.raises(SchedulerError, match="stalled"):
        sched.run_until_idle()


def test_max_attempts_fails_task(world):
    # crash on every claim: the task must eventually FAIL, not loop forever
    world.chaos.configure(ChaosConfig(
        host_crash_every_s=5.0, host_downtime_s=(1.0, 2.0), horizon_s=10**7))
    world.chaos.arm(hosts=["w-host"])
    sched = FleetScheduler(world, SchedulerConfig(
        workers=1, worker_hosts=("w-host",), lease_s=1000.0, heartbeat_s=10.0,
        max_task_attempts=3))
    task = sched.submit(mk(world, task_id="doomed"))
    sched.run_until_idle(max_ticks=100)
    assert task.state is TaskState.FAILED
    assert "3" in task.error


def test_backpressure_keeps_endpoint_within_cap(world):
    cap = 1
    sched = FleetScheduler(world, SchedulerConfig(
        workers=4, limits=SchedulerLimits(max_active_per_endpoint=cap)))
    peak = 0

    def probing(task_id):
        def run():
            nonlocal peak
            peak = max(peak, sched.admission.active_for("ep-a"))
            world.advance(1.0)
            return 10

        return run

    for i in range(6):
        task = mk(world, task_id=f"t{i}")
        task.execute = probing(f"t{i}")
        sched.submit(task)
    assert sched.run_until_idle() == 6
    assert peak == cap


def test_metrics_preregistered_before_traffic(world):
    FleetScheduler(world, SchedulerConfig(workers=1))
    text = world.metrics.render_prometheus()
    for name in (
        "scheduler_submitted_total",
        "scheduler_completed_total",
        "scheduler_requeued_total",
        "scheduler_lease_expirations_total",
        "scheduler_worker_crashes_total",
        "scheduler_queue_depth",
        "scheduler_workers_alive",
        "scheduler_queue_wait_seconds",
        "scheduler_inflight_tasks",
    ):
        assert f"# TYPE {name}" in text, name


def test_snapshot_shape(world):
    sched = FleetScheduler(world, SchedulerConfig(workers=1))
    sched.submit(mk(world, task_id="q1"))
    snap = sched.snapshot()
    assert snap["queued"] == [] or snap["queued"][0]["task"]  # coalesced or queued
    assert snap["workers"][0]["worker"] == "w0"
    assert snap["leases"] == []


def test_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(workers=0)
    with pytest.raises(ValueError):
        SchedulerConfig(heartbeat_s=60.0, lease_s=60.0)
    with pytest.raises(ValueError):
        SchedulerConfig(max_task_attempts=0)


# -- observability wiring --------------------------------------------------


@pytest.mark.traced
def test_submit_stamps_trace_and_events_carry_it(world):
    sched = FleetScheduler(world, SchedulerConfig(
        workers=1, batch_threshold_bytes=0))
    task = sched.submit(mk(world, task_id="t1"))
    assert task.trace_id.startswith("trace-")
    sub = world.log.select("scheduler.submitted")[0]
    assert sub.trace_id == task.trace_id
    assert "lane_vtime" in sub.fields
    assert sub.fields["src"] == "ep-a"
    sched.run_until_idle()
    claimed = world.log.select("scheduler.claimed")[0]
    assert claimed.fields["trace"] == task.trace_id
    assert claimed.fields["wait_s"] >= 0.0
    done = world.log.select("scheduler.task_done")[0]
    assert done.fields["trace"] == task.trace_id
    dispatch = world.log.select("scheduler.dispatch")[0]
    assert dispatch.fields["task"] == "t1"
    # the dispatch event fires inside the claim span: its trace differs
    # from the submit trace and binds the claim's causal tree
    assert dispatch.trace_id is not None
    assert dispatch.trace_id != task.trace_id


@pytest.mark.traced
def test_queue_wait_histogram_captures_exemplars(world):
    sched = FleetScheduler(world, SchedulerConfig(
        workers=1, batch_threshold_bytes=0))
    t1 = sched.submit(mk(world, task_id="t1"))
    sched.submit(mk(world, user="bob", task_id="t2"))
    sched.run_until_idle()
    h = world.metrics.get("scheduler_queue_wait_seconds")
    exemplars = h.exemplars()
    assert exemplars
    assert any(ex.trace_id == t1.trace_id for ex in exemplars.values())
    assert world.metrics.get("scheduler_service_seconds").exemplars()


def test_snapshot_includes_observability_sections(world):
    sched = FleetScheduler(world, SchedulerConfig(
        workers=2, batch_threshold_bytes=0))
    for i in range(3):
        sched.submit(mk(world, user=f"u{i}", task_id=f"t{i}"))
    task = sched.queue.pop_next()
    task.attempts += 1
    sched.leases.grant(task, "w0", world.now, sched.config.lease_s)
    snap = sched.snapshot()
    assert {row["user"] for row in snap["lanes"]} == {"u0", "u1", "u2"}
    assert snap["global_vtime"] == 0.0
    assert snap["admission"]["rejections"] == {}
    (entry,) = snap["expiry_heap"]
    assert entry["task"] == task.task_id
    assert entry["expires_in_s"] == pytest.approx(sched.config.lease_s)
    assert entry["abandoned"] is False
