"""Claim-based workers with leases, heartbeats, and expiry-requeue.

The fleet scheduler's execution model in one paragraph: workers *claim*
tasks from the fair-share queue under a **lease** (the lease/heartbeat/
expiry-requeue primitive itself lives in
:mod:`repro.scheduler.leases`, shared with the archival pipeline's
components).  A live worker
renews its lease by heartbeat (a repeating virtual-time event) while it
drives the claim to completion; a worker whose host crashes never
heartbeats, its lease lapses, and the task **requeues** with its
attempt count bumped — at the front of its user's FIFO, since a crashed
worker must not cost the user their dispatch slot.  A claim abandoned
to a crash has *no side effects* (the worker dies before moving bytes),
which is what makes "zero lost, zero duplicated tasks" provable: every
task is executed by exactly one worker, exactly once, or marked FAILED
after ``max_task_attempts`` lapses.

Virtual-time semantics (documented contract, see DESIGN.md §11): within
one pool *tick* every free, live worker claims a task at the same
virtual instant — so per-endpoint concurrency caps and bytes-in-flight
budgets bind over the claimed set — and the claims then execute
serially in virtual time, each through the existing
:class:`~repro.recovery.engine.RecoveryEngine` machinery inside its
payload, so chaos campaigns exercise the queue end to end.  When no
worker can make progress (all crashed, or all capacity held by lapsed
claims), the pool advances the clock to the next lease expiry or host
recovery instead of spinning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReproError, SchedulerError
from repro.scheduler.batching import (
    DEFAULT_BATCH_MAX_FILES,
    DEFAULT_BATCH_THRESHOLD_BYTES,
    BatchCoalescer,
    CoalescedBatch,
)
from repro.scheduler.leases import Lease, LeaseTable
from repro.scheduler.limits import (
    AdmissionController,
    SchedulerLimits,
    ServiceTimeEwma,
)
from repro.scheduler.queue import FairShareQueue, ScheduledTask, TaskState

__all__ = [
    "SchedulerConfig", "Lease", "LeaseTable", "Worker", "FleetScheduler",
]

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World
    from repro.telemetry.metrics import CounterChild

#: queue-wait / service-time buckets (virtual seconds, fleet scale)
_WAIT_BUCKETS = (0.1, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 3600.0, 6 * 3600.0)


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs for one :class:`FleetScheduler`.

    ``worker_hosts`` maps workers onto topology hosts for crash
    modelling (chaos host faults on those hosts kill the worker's
    claims); workers beyond the list run "virtual" and never crash.
    """

    workers: int = 4
    worker_hosts: tuple[str, ...] = ()
    lease_s: float = 120.0
    heartbeat_s: float = 20.0
    max_task_attempts: int = 8
    batch_threshold_bytes: int = DEFAULT_BATCH_THRESHOLD_BYTES
    batch_max_files: int = DEFAULT_BATCH_MAX_FILES
    limits: SchedulerLimits = field(default_factory=SchedulerLimits)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.lease_s <= 0 or self.heartbeat_s <= 0:
            raise ValueError("lease_s and heartbeat_s must be positive")
        if self.heartbeat_s >= self.lease_s:
            raise ValueError("heartbeat_s must be shorter than lease_s "
                             "(a live worker must renew before expiry)")
        if self.max_task_attempts < 1:
            raise ValueError("max_task_attempts must be at least 1")


@dataclass
class Worker:
    """One claim-slot: an id, an optional host, and a current lease."""

    worker_id: str
    host: str | None = None
    lease: Lease | None = None
    crashes: int = 0


class FleetScheduler:
    """Queue + admission + coalescer + worker pool, behind one facade.

    ``fold_batch`` is the domain hook: given a
    :class:`~repro.scheduler.batching.CoalescedBatch` of small tasks it
    builds the single batch task to dispatch instead (the Globus Online
    service folds them into one pipelined ``BatchTransferJob``).  With
    no hook, batching is off and every task dispatches as submitted.

    ``shard`` embeds this scheduler as one shard of a
    :class:`~repro.scheduler.sharding.ShardedFleetScheduler`: every
    ``scheduler_*`` series gains a ``shard`` label, every scheduler
    event carries a ``shard=`` field, and worker ids take
    ``worker_prefix`` so they stay unique across the fleet.  With
    ``shard=None`` (the default) registrations, events, and worker
    names are exactly the label-free single-scheduler ones.
    """

    def __init__(
        self,
        world: "World",
        config: SchedulerConfig | None = None,
        fold_batch: Callable[[CoalescedBatch], ScheduledTask] | None = None,
        *,
        shard: str | None = None,
        worker_prefix: str = "w",
        service_ewma: ServiceTimeEwma | None = None,
    ) -> None:
        self.world = world
        self.config = config or SchedulerConfig()
        self.shard = shard
        self.queue = FairShareQueue()
        self.admission = AdmissionController(
            world, self.config.limits, workers=self.config.workers,
            shard=shard, service_ewma=service_ewma)
        self.fold_batch = fold_batch
        self.coalescer = BatchCoalescer(
            threshold_bytes=self.config.batch_threshold_bytes
            if fold_batch is not None else 0,
            max_files=self.config.batch_max_files,
        )
        self.leases = LeaseTable()
        self.workers = [
            Worker(
                worker_id=f"{worker_prefix}{i}",
                host=self.config.worker_hosts[i]
                if i < len(self.config.worker_hosts) else None,
            )
            for i in range(self.config.workers)
        ]
        self._workers_by_id = {w.worker_id: w for w in self.workers}
        self._task_ids = itertools.count(1)
        self._completed: list[ScheduledTask] = []
        # sharded instances label series and stamp events by shard; the
        # unsharded path passes empty dicts so nothing changes
        self._metric_shard = {} if shard is None else {"shard": shard}
        self._event_shard = dict(self._metric_shard)
        shard_labels = () if shard is None else ("shard",)

        # pre-register every scheduler_* series so it is visible in
        # Prometheus exposition from init, before any traffic; each is
        # bound here, so dispatch resolves no labels
        metrics = world.metrics
        labels = self._metric_shard

        def counter(name: str, help: str) -> CounterChild:
            return metrics.counter(name, help, labelnames=shard_labels).labels(**labels)

        self._submitted_c = counter(
            "scheduler_submitted_total", "Tasks accepted into the fleet queue")
        self._completed_c = counter(
            "scheduler_completed_total", "Tasks serviced to completion")
        self._failed_c = counter(
            "scheduler_task_failures_total",
            "Tasks abandoned after exhausting their claim attempts or raising")
        self._requeued_c = counter(
            "scheduler_requeued_total", "Tasks returned to the queue by lease lapses")
        self._expired_c = counter(
            "scheduler_lease_expirations_total", "Leases that lapsed without release")
        self._crashes_c = counter(
            "scheduler_worker_crashes_total", "Claims lost to worker host crashes")
        self._batches_c = counter(
            "scheduler_batches_coalesced_total",
            "Batch tasks built by small-file coalescing")
        self._batched_files_c = counter(
            "scheduler_batched_files_total", "Single-file tasks folded into batches")
        self._bytes_c = metrics.counter(
            "scheduler_bytes_delivered_total", "Bytes delivered, by user",
            labelnames=shard_labels + ("user",))
        # per-user children of _bytes_c, bound at each user's first completion
        self._bytes_by_user: dict[str, CounterChild] = {}
        for child in (self._submitted_c, self._completed_c, self._failed_c,
                      self._requeued_c, self._expired_c, self._crashes_c,
                      self._batches_c, self._batched_files_c):
            child.inc(0)
        self._depth_g = metrics.gauge(
            "scheduler_queue_depth", "Tasks waiting for dispatch",
            labelnames=shard_labels).labels(**labels)
        self._fair_error_g = metrics.gauge(
            "scheduler_fair_share_error",
            "Max |byte share - weight share| across active users",
            labelnames=shard_labels).labels(**labels)
        self._workers_alive_g = metrics.gauge(
            "scheduler_workers_alive", "Workers whose hosts are currently up",
            labelnames=shard_labels).labels(**labels)
        self._depth_g.set(0)
        self._fair_error_g.set(0)
        # the fair-share-error gauge costs O(active users) to recompute;
        # refresh it every completion for small fleets but amortize to
        # one full pass per ~lanes/64 completions at 100k-user scale
        # (run_until_idle always leaves it freshly computed on exit)
        self._fair_stride = 1
        self._since_fair = 0
        self._workers_alive_g.set(self.config.workers)
        self._wait_h = metrics.histogram(
            "scheduler_queue_wait_seconds",
            "Virtual seconds between submit and first claim",
            buckets=_WAIT_BUCKETS, labelnames=shard_labels).labels(**labels)
        self._service_h = metrics.histogram(
            "scheduler_service_seconds",
            "Virtual seconds a claim spent executing",
            buckets=_WAIT_BUCKETS, labelnames=shard_labels).labels(**labels)
        # limits gauges are registered by the AdmissionController

    # -- submission --------------------------------------------------------

    def next_task_id(self) -> str:
        """A fresh scheduler-scoped task id."""
        return f"task-{next(self._task_ids):06d}"

    def submit(self, task: ScheduledTask) -> ScheduledTask:
        """Admit a task (or raise typed backpressure) and enqueue it.

        Small tasks may be absorbed by the coalescer; they re-emerge as
        one pipelined batch task at the next dispatch round.
        """
        self.admission.admit(
            task,
            queue_depth=len(self.queue) + len(self.coalescer),
            user_depth=self.queue.depth_for(task.user) + self.coalescer.depth_for(task.user),
        )
        if not task.task_id:
            task.task_id = self.next_task_id()
        task.submitted_at = self.world.now
        self._submitted_c.inc()
        with self.world.tracer.span(
            "scheduler.submit", task=task.task_id, user=task.user
        ) as sp:
            task.trace_id = sp.context.trace_id
            self.world.emit(
                "scheduler.submitted", "task queued",
                task=task.task_id, user=task.user, job=task.job_id,
                bytes=task.size_hint,
                src=task.src_endpoint, dst=task.dst_endpoint,
                lane_vtime=self.queue.lane_vtime(task.user),
                **self._event_shard,
            )
            absorbed = self.coalescer.add(task)
            if absorbed is not None:
                self.queue.push(absorbed)
        self._depth_g.set(len(self.queue) + len(self.coalescer))
        return task

    def _user_bytes(self, user: str) -> CounterChild:
        child = self._bytes_by_user.get(user)
        if child is None:
            child = self._bytes_by_user[user] = self._bytes_c.labels(
                user=user, **self._metric_shard)
        return child

    def set_weight(self, user: str, weight: float) -> None:
        """Assign a user's fair-share weight."""
        self.queue.set_weight(user, weight)

    # -- the drain loop ----------------------------------------------------

    def run_until_idle(self, max_ticks: int | None = None) -> int:
        """Dispatch until queue and leases are empty; returns tasks serviced.

        This *is* the fleet scheduler's event loop, on virtual time, and
        it is event-driven: every claim round is preceded by a wakeup
        event — task-available (submit/flush/requeue), worker-free
        (completion or lapse), or lease-expiry/host-recovery (the clock
        jumps straight to the earliest one via :meth:`_wait_for_next_event`
        when nothing can run; no fixed-interval polling ever happens).
        While the drain runs, a single repeating sweep renews every live
        lease — one scheduler event per heartbeat interval for the whole
        pool, not one per in-flight task.
        """
        serviced = 0
        ticks = 0
        sweep = self.world.scheduler.every(
            self.config.heartbeat_s, self._sweep_heartbeats,
            label="scheduler.heartbeat-sweep")
        try:
            while True:
                self._flush_batches()
                self._requeue_lapsed()
                if not len(self.queue) and not len(self.leases):
                    break
                ticks += 1
                if max_ticks is not None and ticks > max_ticks:
                    raise SchedulerError(
                        f"drain did not converge within {max_ticks} ticks")
                serviced += self._tick()
                self._depth_g.set(len(self.queue) + len(self.coalescer))
        finally:
            sweep.cancel()
        self._fair_error_g.set(self.queue.fair_share_error())
        # surface how much of the drain's login traffic the control-channel
        # pool absorbed (only when a pool saw any traffic this world)
        pool = getattr(self.world, "_control_channel_pool", None)
        if pool is not None and (pool.reuses or pool.misses):
            self.world.metrics.gauge(
                "scheduler_session_reuse_ratio",
                "Fraction of control-channel logins served from the pool",
            ).set(pool.reuses / (pool.reuses + pool.misses))
        return serviced

    def _flush_batches(self) -> None:
        if not len(self.coalescer):
            return
        for task in self.coalescer.flush(self._fold):
            self.queue.push(task)

    def _fold(self, bucket: CoalescedBatch) -> ScheduledTask:
        assert self.fold_batch is not None
        task = self.fold_batch(bucket)
        if not task.task_id:
            task.task_id = self.next_task_id()
        self._batches_c.inc()
        self._batched_files_c.inc(len(bucket.tasks))
        self.world.emit(
            "scheduler.coalesced", "small files folded into one batch task",
            task=task.task_id, user=bucket.user, files=len(bucket.tasks),
            bytes=bucket.total_bytes, **self._event_shard,
        )
        return task

    def _alive(self, worker: Worker, now: float) -> bool:
        return worker.host is None or not self.world.faults.host_down(worker.host, now)

    def _claim_for(self, worker: Worker, now: float) -> Lease | None:
        """One worker claims this scheduler's next dispatchable task.

        Returns None when nothing is runnable (empty queue or every lane
        head inadmissible).  A returned lease with ``abandoned=True``
        means the claim happened but the worker's host crashes inside
        the lease window — the claim is parked on the worker and will
        requeue by lapse.  The worker may belong to *another* shard (the
        work-stealing path): all bookkeeping stays on this scheduler's
        queue/lease/admission books; only the worker identity and crash
        model come from the claimant.
        """
        world = self.world
        task = self.queue.pop_next(admissible=self.admission.can_start)
        if task is None:
            return None
        task.attempts += 1
        self.admission.on_start(task)
        lease = self.leases.grant(task, worker.worker_id, now, self.config.lease_s)
        task.claimed_at = now
        wait_s = now - task.submitted_at
        self._wait_h.observe(wait_s, exemplar=task.trace_id or None)
        if task.on_claim is not None:
            task.on_claim(task)
        world.emit(
            "scheduler.claimed", "task leased to worker",
            task=task.task_id, worker=worker.worker_id,
            attempt=task.attempts, lease_expires_at=lease.expires_at,
            wait_s=wait_s, trace=task.trace_id or None, **self._event_shard,
        )
        # Crash model: a host fault beginning inside the lease window
        # kills this claim before any byte moves — the lease simply
        # lapses and the task requeues.  No partial side effects.
        crash_at = None
        if worker.host is not None:
            crash_at = world.faults.first_interruption(
                (), (worker.host,), now, now + self.config.lease_s)
        if crash_at is not None:
            lease.abandoned = True
            worker.lease = lease
            worker.crashes += 1
            self._crashes_c.inc()
            world.emit(
                "scheduler.worker_crashed", "worker lost mid-claim; lease will lapse",
                task=task.task_id, worker=worker.worker_id, crash_at=crash_at,
                **self._event_shard,
            )
        return lease

    def _claim_phase(
        self, now: float
    ) -> tuple[list[tuple[Worker, Lease]], list[Worker], int]:
        """Every free, live worker claims at the same virtual instant.

        Returns ``(claims, free, alive)``: the executable claims in claim
        order, the workers that stayed free (nothing runnable locally —
        work-stealing candidates for a sharded router), and the live
        worker count.
        """
        claims: list[tuple[Worker, Lease]] = []
        free: list[Worker] = []
        alive = 0
        for worker in self.workers:
            if worker.lease is not None:
                continue  # still holding an abandoned claim
            if not self._alive(worker, now):
                continue
            alive += 1
            if not len(self.queue):
                free.append(worker)
                continue  # nothing queued: the scan only refreshes liveness
            lease = self._claim_for(worker, now)
            if lease is None:
                free.append(worker)
            elif not lease.abandoned:
                claims.append((worker, lease))
        return claims, free, alive

    def _tick(self) -> int:
        """One claim round: simultaneous claims, serial execution."""
        now = self.world.now
        claims, _free, alive = self._claim_phase(now)
        self._workers_alive_g.set(alive)

        executed = 0
        for worker, lease in claims:
            self._execute(worker, lease)
            executed += 1
        if executed == 0 and not claims:
            self._wait_for_next_event()
        return executed

    def _execute(self, worker: Worker, lease: Lease) -> None:
        world = self.world
        task = lease.task
        started = world.now
        try:
            with world.tracer.span(
                "scheduler.claim",
                task=task.task_id, worker=worker.worker_id,
                user=task.user, attempt=task.attempts,
            ):
                # the dispatch event binds this claim's trace to the task,
                # so recovery/transfer events emitted inside the claim span
                # attach causally to the task's flight record
                world.emit(
                    "scheduler.dispatch", "claim executing",
                    task=task.task_id, worker=worker.worker_id,
                    attempt=task.attempts, trace=task.trace_id or None,
                    **self._event_shard,
                )
                try:
                    result = task.execute()
                except ReproError as exc:
                    task.state = TaskState.FAILED
                    task.error = str(exc)
                    self._failed_c.inc()
                    world.emit(
                        "scheduler.task_failed", "task raised during execution",
                        task=task.task_id, error=str(exc),
                        trace=task.trace_id or None, **self._event_shard,
                    )
                else:
                    task.state = TaskState.DONE
                    delivered = task.size_hint
                    if task.measure is not None:
                        delivered = task.measure(result)
                    task.execute = task.measure = None
                    task.on_claim = task.on_requeue = None
                    task.delivered_bytes = delivered
                    self.queue.charge(task.user, delivered)
                    self._user_bytes(task.user).inc(delivered)
                    self._completed_c.inc()
                    self._completed.append(task)
                    world.emit(
                        "scheduler.task_done", "task serviced",
                        task=task.task_id, user=task.user, bytes=delivered,
                        attempts=task.attempts, trace=task.trace_id or None,
                        **self._event_shard,
                    )
        finally:
            service_s = world.now - started
            self._service_h.observe(service_s, exemplar=task.trace_id or None)
            self.leases.release(lease)
            self.admission.on_finish(task, service_s)
            self._since_fair += 1
            if self._since_fair >= self._fair_stride:
                self._since_fair = 0
                self._fair_error_g.set(self.queue.fair_share_error())
                self._fair_stride = max(1, self.queue.lane_count() // 64)

    def _sweep_heartbeats(self) -> None:
        """Renew every live claim in one pass (the coalesced heartbeat).

        Replaces the per-task repeating heartbeat events: one scheduler
        event per interval covers the whole pool.  Abandoned claims are
        never renewed (their worker crashed; the lease must lapse), and
        a downed host cannot renew.
        """
        now = self.world.now
        faults = self.world.faults
        for lease in self.leases.outstanding():
            if lease.abandoned:
                continue
            worker = self._workers_by_id.get(lease.worker_id)
            host = worker.host if worker is not None else None
            if host is not None and faults.host_down(host, now):
                continue
            self.leases.renew(lease, now, self.config.lease_s)

    def _requeue_lapsed(self) -> None:
        world = self.world
        for lease in self.leases.expired(world.now):
            task = lease.task
            self.leases.release(lease)
            self.admission.on_finish(task)
            self._expired_c.inc()
            worker = self._workers_by_id.get(lease.worker_id)
            if worker is not None and worker.lease is lease:
                worker.lease = None
            world.emit(
                "scheduler.lease_expired", "lease lapsed; reclaiming task",
                task=task.task_id, worker=lease.worker_id,
                attempt=lease.attempt, trace=task.trace_id or None,
                **self._event_shard,
            )
            if task.attempts >= self.config.max_task_attempts:
                task.state = TaskState.FAILED
                task.error = (
                    f"abandoned after {task.attempts} lapsed claims "
                    f"(max_task_attempts={self.config.max_task_attempts})"
                )
                self._failed_c.inc()
                if task.on_requeue is not None:
                    task.on_requeue(task)
                world.emit(
                    "scheduler.task_failed", "task exhausted its claim attempts",
                    task=task.task_id, attempts=task.attempts,
                    trace=task.trace_id or None, **self._event_shard,
                )
                continue
            self.queue.requeue(task)
            self._requeued_c.inc()
            if task.on_requeue is not None:
                task.on_requeue(task)

    def _next_event_candidates(self, now: float) -> list[float]:
        """Future wakeup times: earliest lease expiry + host recoveries.

        Split out so a sharded router can merge candidates across every
        shard before advancing the one shared clock.
        """
        world = self.world
        candidates: list[float] = []
        next_expiry = self.leases.next_expiry()
        if next_expiry is not None:
            candidates.append(next_expiry)
        for worker in self.workers:
            if worker.host is not None and not self._alive(worker, now):
                up = world.faults.next_clear_time((), (worker.host,), now)
                if up > now:
                    candidates.append(up)
        return [t for t in candidates if t > now and math.isfinite(t)]

    def _wait_for_next_event(self) -> None:
        """Nothing can run now: jump to the next expiry or host recovery."""
        world = self.world
        future = self._next_event_candidates(world.now)
        if not future:
            raise SchedulerError(
                "scheduler stalled: tasks queued but no worker can ever run them"
            )
        world.advance_to(min(future))

    # -- introspection -----------------------------------------------------

    @property
    def completed_tasks(self) -> tuple[ScheduledTask, ...]:
        """Tasks serviced to completion, in completion order."""
        return tuple(self._completed)

    def snapshot(self) -> dict[str, Any]:
        """Queue/lease/worker state for dumps and tests."""
        return {
            "now": self.world.now,
            "queued": [
                {
                    "task": t.task_id, "user": t.user, "state": t.state.value,
                    "priority": t.priority, "attempts": t.attempts,
                    "bytes": t.size_hint, "waiting_s": self.world.now - t.submitted_at,
                    "route": f"{t.src_endpoint}->{t.dst_endpoint}",
                }
                for t in self.queue.tasks()
            ],
            "leases": [
                {
                    "task": lease.task.task_id, "worker": lease.worker_id,
                    "granted_at": lease.granted_at, "expires_at": lease.expires_at,
                    "attempt": lease.attempt, "abandoned": lease.abandoned,
                }
                for lease in self.leases.outstanding()
            ],
            "workers": [
                {
                    "worker": w.worker_id, "host": w.host or "-",
                    "alive": self._alive(w, self.world.now),
                    "crashes": w.crashes,
                }
                for w in self.workers
            ],
            "lanes": self.queue.lane_stats(),
            "global_vtime": self.queue.global_vtime,
            "admission": self.admission.stats(),
            "expiry_heap": [
                {
                    "task": lease.task.task_id, "worker": lease.worker_id,
                    "expires_at": lease.expires_at,
                    "expires_in_s": lease.expires_at - self.world.now,
                    "abandoned": lease.abandoned,
                }
                for lease in sorted(
                    self.leases.outstanding(),
                    key=lambda le: (le.expires_at, le.lease_id))
            ],
        }
