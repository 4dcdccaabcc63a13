"""Admission control and backpressure for the fleet scheduler.

Two doors, two failure styles:

* **Submit-time admission** — the bounded queue.  A full queue or an
  exhausted per-user quota rejects with a typed error
  (:class:`~repro.errors.QueueFullError` /
  :class:`~repro.errors.QuotaExceededError`) carrying a retry-after
  hint derived from observed service times, so clients can back off
  instead of hammering the door.

* **Claim-time backpressure** — per-endpoint concurrency caps and
  bytes-in-flight budgets.  A task whose endpoints are saturated is not
  rejected; it simply stays queued (keeping its FIFO position) until a
  slot frees up.  This is what stands between "millions of users" and
  an endpoint stampede.

Both endpoints of a transfer occupy capacity: a task counts against its
source *and* destination endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import QueueFullError, QuotaExceededError
from repro.scheduler.queue import ScheduledTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World
    from repro.telemetry.metrics import CounterChild

#: fallback retry-after hint before any task has completed
DEFAULT_RETRY_AFTER_S = 30.0


class ServiceTimeEwma:
    """An exponentially-weighted service-time average, shareable by reference.

    The retry-after hints the admission door hands out are paced by
    observed claim service times.  Keeping the estimator in its own
    object lets a sharded control plane hand *one* instance to every
    shard's controller, so two shards at the same depth quote the same
    hint — a client retrying against any shard sees one consistent
    backoff story, not N divergent ones.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def update(self, service_s: float) -> None:
        """Fold one observed claim service time into the average."""
        self.value = (
            service_s if self.value is None
            else 0.8 * self.value + 0.2 * service_s
        )


@dataclass(frozen=True)
class SchedulerLimits:
    """The backpressure contract, in one immutable bundle.

    ``None`` disables a knob.  ``max_queue_depth`` bounds tasks waiting
    (claimed tasks do not count); ``max_queued_per_user`` is the
    per-account quota; ``max_active_per_endpoint`` caps concurrent
    claims touching one endpoint; ``max_bytes_in_flight_per_endpoint``
    budgets the size hints of those claims.
    """

    max_queue_depth: int | None = 10_000
    max_queued_per_user: int | None = None
    max_active_per_endpoint: int | None = 8
    max_bytes_in_flight_per_endpoint: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_queue_depth", "max_queued_per_user",
                     "max_active_per_endpoint", "max_bytes_in_flight_per_endpoint"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None (got {value})")


class AdmissionController:
    """Enforces :class:`SchedulerLimits` and keeps the in-flight books."""

    def __init__(self, world: "World", limits: SchedulerLimits | None = None,
                 workers: int = 1, *, shard: str | None = None,
                 service_ewma: ServiceTimeEwma | None = None) -> None:
        self.world = world
        self.limits = limits or SchedulerLimits()
        self.workers = max(1, workers)
        self.shard = shard
        self._active_per_endpoint: dict[str, int] = {}
        self._bytes_per_endpoint: dict[str, int] = {}
        self.service_ewma = service_ewma if service_ewma is not None else ServiceTimeEwma()
        self._rejections: dict[str, int] = {}
        # a sharded controller labels its series and events by shard; the
        # unsharded path keeps the exact label-free registrations
        self._metric_shard = {} if shard is None else {"shard": shard}
        self._event_shard = dict(self._metric_shard)
        shard_labels = () if shard is None else ("shard",)
        metrics = world.metrics
        self._rejected_c = metrics.counter(
            "scheduler_rejected_total",
            "Submissions refused by admission control",
            labelnames=shard_labels + ("reason",))
        # per-reason children of _rejected_c, bound at the first rejection
        self._rejected_by_reason: dict[str, CounterChild] = {}
        self._inflight_tasks_g = metrics.gauge(
            "scheduler_inflight_tasks", "Claims currently holding capacity",
            labelnames=shard_labels).labels(**self._metric_shard)
        self._inflight_bytes_g = metrics.gauge(
            "scheduler_inflight_bytes",
            "Size-hint bytes of claims currently holding capacity",
            labelnames=shard_labels).labels(**self._metric_shard)

    # -- submit-time admission -------------------------------------------

    def admit(self, task: ScheduledTask, queue_depth: int, user_depth: int) -> None:
        """Admit a submission or raise a typed rejection.

        ``queue_depth``/``user_depth`` are the *current* queued counts
        (the task being admitted is not yet among them).
        """
        lim = self.limits
        if lim.max_queue_depth is not None and queue_depth >= lim.max_queue_depth:
            hint = self.retry_after_hint(queue_depth)
            self._reject("queue_full", task, hint)
            raise QueueFullError(
                f"task queue is full ({queue_depth}/{lim.max_queue_depth}); "
                f"retry in ~{hint:.0f}s",
                retry_after_s=hint,
            )
        if lim.max_queued_per_user is not None and user_depth >= lim.max_queued_per_user:
            hint = self.retry_after_hint(user_depth)
            self._reject("user_quota", task, hint)
            raise QuotaExceededError(
                f"user {task.user!r} already has {user_depth} tasks queued "
                f"(quota {lim.max_queued_per_user}); retry in ~{hint:.0f}s",
                user=task.user,
                retry_after_s=hint,
            )

    def _reject(self, reason: str, task: ScheduledTask, retry_after_s: float) -> None:
        child = self._rejected_by_reason.get(reason)
        if child is None:
            child = self._rejected_by_reason[reason] = self._rejected_c.labels(
                reason=reason, **self._metric_shard)
        child.inc()
        self._rejections[reason] = self._rejections.get(reason, 0) + 1
        self.world.emit(
            "scheduler.rejected", "submission refused by admission control",
            reason=reason, user=task.user, task=task.task_id or None,
            retry_after_s=round(retry_after_s, 3), **self._event_shard,
        )

    def retry_after_hint(self, depth: int) -> float:
        """Estimated virtual seconds until a resubmission can be admitted.

        Depth over the worker pool, paced by the observed service-time
        EWMA; a configured default before any completion has been seen.
        The EWMA may be shared fleet-wide (see :class:`ServiceTimeEwma`),
        in which case every shard quotes from the same estimate.
        """
        ewma = self.service_ewma.value
        if ewma is None:
            return DEFAULT_RETRY_AFTER_S
        drains = max(1.0, depth / self.workers)
        return max(1.0, drains * ewma)

    # -- claim-time backpressure -----------------------------------------

    def can_start(self, task: ScheduledTask) -> bool:
        """May this task claim capacity right now?  (False = stay queued.)"""
        lim = self.limits
        for endpoint in task.endpoints:
            if lim.max_active_per_endpoint is not None:
                if self._active_per_endpoint.get(endpoint, 0) >= lim.max_active_per_endpoint:
                    return False
            if lim.max_bytes_in_flight_per_endpoint is not None:
                in_flight = self._bytes_per_endpoint.get(endpoint, 0)
                if in_flight > 0 and in_flight + task.size_hint > lim.max_bytes_in_flight_per_endpoint:
                    return False
        return True

    def on_start(self, task: ScheduledTask) -> None:
        """Charge a claim against both endpoints' capacity."""
        for endpoint in task.endpoints:
            self._active_per_endpoint[endpoint] = (
                self._active_per_endpoint.get(endpoint, 0) + 1)
            self._bytes_per_endpoint[endpoint] = (
                self._bytes_per_endpoint.get(endpoint, 0) + task.size_hint)
        self._inflight_tasks_g.inc()
        self._inflight_bytes_g.inc(task.size_hint)

    def on_finish(self, task: ScheduledTask, service_s: float | None = None) -> None:
        """Release a claim's capacity (completion, failure, or lapse)."""
        for endpoint in task.endpoints:
            self._active_per_endpoint[endpoint] = max(
                0, self._active_per_endpoint.get(endpoint, 0) - 1)
            self._bytes_per_endpoint[endpoint] = max(
                0, self._bytes_per_endpoint.get(endpoint, 0) - task.size_hint)
        self._inflight_tasks_g.dec()
        self._inflight_bytes_g.dec(task.size_hint)
        if service_s is not None:
            self.service_ewma.update(service_s)

    # -- introspection ----------------------------------------------------

    def active_for(self, endpoint: str) -> int:
        """Claims currently charged against one endpoint."""
        return self._active_per_endpoint.get(endpoint, 0)

    def bytes_in_flight_for(self, endpoint: str) -> int:
        """Size-hint bytes currently charged against one endpoint."""
        return self._bytes_per_endpoint.get(endpoint, 0)

    def stats(self) -> dict:
        """Rejections by type plus the service-time EWMA (for dumps)."""
        return {
            "rejections": dict(sorted(self._rejections.items())),
            "service_ewma_s": self.service_ewma.value,
            "retry_after_hint_s": self.retry_after_hint(
                sum(self._active_per_endpoint.values()) // 2 or 1),
        }
