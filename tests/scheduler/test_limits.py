"""Unit tests for admission control and backpressure."""

import pytest

from repro.errors import QueueFullError, QuotaExceededError
from repro.scheduler import AdmissionController, ScheduledTask, SchedulerLimits
from repro.sim.world import World


def mk(user="alice", size=1000, src="ep-a", dst="ep-b"):
    return ScheduledTask(
        task_id=f"{user}-{size}",
        user=user,
        src_endpoint=src,
        dst_endpoint=dst,
        size_hint=size,
        execute=lambda: None,
    )


@pytest.fixture
def ctrl(world):
    return AdmissionController(
        world,
        SchedulerLimits(
            max_queue_depth=3,
            max_queued_per_user=2,
            max_active_per_endpoint=2,
            max_bytes_in_flight_per_endpoint=10_000,
        ),
        workers=2,
    )


def test_queue_full_rejects_with_hint(ctrl):
    with pytest.raises(QueueFullError) as exc_info:
        ctrl.admit(mk(), queue_depth=3, user_depth=0)
    assert exc_info.value.retry_after_s > 0


def test_user_quota_rejects_with_user(ctrl):
    with pytest.raises(QuotaExceededError) as exc_info:
        ctrl.admit(mk(user="greedy"), queue_depth=1, user_depth=2)
    assert exc_info.value.user == "greedy"


def test_under_limits_admits(ctrl):
    ctrl.admit(mk(), queue_depth=2, user_depth=1)  # no raise


def test_endpoint_concurrency_cap(ctrl):
    a, b = mk(size=10), mk(size=10)
    ctrl.on_start(a)
    ctrl.on_start(b)
    # both endpoints of the route are saturated now
    assert not ctrl.can_start(mk(size=10))
    # a different route is unaffected
    assert ctrl.can_start(mk(size=10, src="ep-c", dst="ep-d"))
    ctrl.on_finish(a)
    assert ctrl.can_start(mk(size=10))


def test_bytes_budget_blocks_but_allows_oversized_when_idle(ctrl):
    big = mk(size=50_000)  # alone it exceeds the 10k budget
    assert ctrl.can_start(big)  # idle endpoint: oversized is admitted
    ctrl.on_start(big)
    assert not ctrl.can_start(mk(size=10))  # budget now exhausted
    ctrl.on_finish(big)
    assert ctrl.can_start(mk(size=10))


def test_capacity_books_balance(ctrl):
    task = mk(size=500)
    ctrl.on_start(task)
    assert ctrl.active_for("ep-a") == 1
    assert ctrl.bytes_in_flight_for("ep-b") == 500
    ctrl.on_finish(task)
    assert ctrl.active_for("ep-a") == 0
    assert ctrl.bytes_in_flight_for("ep-b") == 0


def test_retry_after_tracks_service_ewma(ctrl):
    before = ctrl.retry_after_hint(depth=4)
    ctrl.on_start(mk())
    ctrl.on_finish(mk(), service_s=10.0)
    after = ctrl.retry_after_hint(depth=4)
    # 4 queued over 2 workers at ~10s each -> ~20s, not the 30s default
    assert after == pytest.approx(20.0)
    assert before == 30.0


def test_rejections_are_counted(ctrl, world):
    for _ in range(2):
        with pytest.raises(QueueFullError):
            ctrl.admit(mk(), queue_depth=3, user_depth=0)
    text = world.metrics.render_prometheus()
    assert 'scheduler_rejected_total{reason="queue_full"} 2' in text


def test_limit_validation():
    with pytest.raises(ValueError):
        SchedulerLimits(max_queue_depth=0)
    with pytest.raises(ValueError):
        SchedulerLimits(max_active_per_endpoint=-1)


def test_none_disables_every_knob(world):
    ctrl = AdmissionController(world, SchedulerLimits(
        max_queue_depth=None, max_queued_per_user=None,
        max_active_per_endpoint=None, max_bytes_in_flight_per_endpoint=None,
    ))
    ctrl.admit(mk(), queue_depth=10**6, user_depth=10**6)
    for _ in range(100):
        ctrl.on_start(mk(size=10**9))
    assert ctrl.can_start(mk(size=10**9))


# -- rejection telemetry (observability) -----------------------------------


@pytest.mark.traced
def test_rejections_emit_events_and_stats(world, ctrl):
    with pytest.raises(QueueFullError):
        ctrl.admit(mk(), queue_depth=3, user_depth=0)
    with pytest.raises(QuotaExceededError):
        ctrl.admit(mk(user="bob"), queue_depth=1, user_depth=2)
    events = world.log.select("scheduler.rejected")
    assert [ev.fields["reason"] for ev in events] == ["queue_full", "user_quota"]
    assert events[1].fields["user"] == "bob"
    assert events[0].fields["retry_after_s"] > 0
    stats = ctrl.stats()
    assert stats["rejections"] == {"queue_full": 1, "user_quota": 1}
    assert stats["service_ewma_s"] is None
    assert stats["retry_after_hint_s"] > 0


def test_stats_tracks_service_ewma(world, ctrl):
    task = mk()
    ctrl.on_start(task)
    ctrl.on_finish(task, service_s=10.0)
    assert ctrl.stats()["service_ewma_s"] == pytest.approx(10.0)
    ctrl.on_start(task)
    ctrl.on_finish(task, service_s=20.0)
    assert ctrl.stats()["service_ewma_s"] == pytest.approx(12.0)
