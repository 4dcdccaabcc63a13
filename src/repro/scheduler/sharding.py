"""A sharded control plane: N independent schedulers behind one router.

The single :class:`~repro.scheduler.workers.FleetScheduler` is O(log n)
per operation (DESIGN.md §12) but still one in-process fair-share heap,
one lease table, one admission controller — a ceiling on the "millions
of users" axis.  :class:`ShardedFleetScheduler` lifts it by hashing
users across N shards, each a full :class:`FleetScheduler` (its own
fair-share heap, lease-expiry heap, admission books), behind a thin
router that owns the drain loop and deterministic work-stealing.

Three design rules make the sharded plane trustworthy:

* **N=1 is bit-for-bit the single scheduler.**  The router's drain loop
  mirrors ``FleetScheduler.run_until_idle`` operation for operation;
  with one shard every claim, requeue, batch flush, and clock jump
  happens in exactly the same order, so the PR-5 fingerprint gate
  (completion order, delivered bytes, crash/requeue/batch counts,
  virtual clock) holds bitwise.  CI runs that gate standalone.

* **Shared identity, sharded state.**  Task ids come from one counter,
  completions land in one list, workers live in one merged directory —
  so exactly-once dispatch and global completion order survive
  sharding — while queues, leases, and admission books stay per-shard
  and never contend.  The admission retry-after EWMA is one shared
  :class:`~repro.scheduler.limits.ServiceTimeEwma` so every shard
  quotes consistent backoff hints.

* **Deterministic work-stealing.**  After local claims, each still-free
  live worker steals from the deepest foreign shard (ties: lowest shard
  index).  The theft runs on the *victim's* books — its queue pop, its
  lease, its admission charge, its fair-share accounting — so per-shard
  invariants hold no matter who executes; only the crash model follows
  the thief's host.  Local dispatch always wins over stealing because
  the steal phase only ever sees workers whose home shard had nothing
  runnable.

See DESIGN.md §14 for the full architecture and the
fingerprint-equivalence argument.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import SchedulerError
from repro.scheduler.batching import CoalescedBatch
from repro.scheduler.limits import ServiceTimeEwma
from repro.scheduler.queue import ScheduledTask
from repro.scheduler.workers import FleetScheduler, Lease, SchedulerConfig, Worker

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World


def user_shard(user: str, shards: int) -> int:
    """The home shard for a user: ``crc32(user) % shards``.

    CRC32, not :func:`hash` — Python string hashing is randomized per
    process (PYTHONHASHSEED), and the shard map must be stable across
    runs, replicas, and replays for the determinism story to hold.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive (got {shards})")
    return zlib.crc32(user.encode("utf-8")) % shards


class _ShardedQueueView:
    """Read-only aggregate over every shard's fair-share queue."""

    def __init__(self, owner: "ShardedFleetScheduler") -> None:
        self._owner = owner

    def __len__(self) -> int:
        return sum(len(s.queue) for s in self._owner.shards)

    def depth_for(self, user: str) -> int:
        return self._owner.shard_for(user).queue.depth_for(user)

    def lane_vtime(self, user: str) -> float:
        return self._owner.shard_for(user).queue.lane_vtime(user)

    def delivered_bytes(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for shard in self._owner.shards:
            merged.update(shard.queue.delivered_bytes())
        return dict(sorted(merged.items()))

    def lane_stats(self) -> list[dict[str, Any]]:
        rows = []
        for idx, shard in enumerate(self._owner.shards):
            for row in shard.queue.lane_stats():
                rows.append({"shard": idx, **row})
        rows.sort(key=lambda r: r["user"])
        return rows

    def tasks(self) -> Iterator[ScheduledTask]:
        for shard in self._owner.shards:
            yield from shard.queue.tasks()


class _ShardedLeaseView:
    """Read-only aggregate over every shard's lease table."""

    def __init__(self, owner: "ShardedFleetScheduler") -> None:
        self._owner = owner

    def __len__(self) -> int:
        return sum(len(s.leases) for s in self._owner.shards)

    def outstanding(self) -> list[Lease]:
        out: list[Lease] = []
        for shard in self._owner.shards:
            out.extend(shard.leases.outstanding())
        out.sort(key=lambda lease: (lease.granted_at, lease.worker_id))
        return out


class ShardedFleetScheduler:
    """N :class:`FleetScheduler` shards behind one deterministic router.

    Accepts the same ``(world, config, fold_batch)`` surface as
    :class:`FleetScheduler` plus ``shards=N``.  ``config.workers`` is
    the *fleet* worker count; worker *i* serves shard ``i % N`` (so
    hosts interleave across shards and a single host fault never takes
    a whole shard with it unless the topology says so).  Requires at
    least one worker per shard.
    """

    def __init__(
        self,
        world: "World",
        config: SchedulerConfig | None = None,
        fold_batch: Callable[[CoalescedBatch], ScheduledTask] | None = None,
        *,
        shards: int = 1,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be positive (got {shards})")
        config = config or SchedulerConfig()
        if config.workers < shards:
            raise ValueError(
                f"need at least one worker per shard "
                f"(workers={config.workers}, shards={shards})")
        self.world = world
        self.config = config
        self.fold_batch = fold_batch
        self.n_shards = shards
        # shared identity: one task-id counter, one completion list, one
        # retry-after EWMA — what keeps N schedulers one control plane
        self._task_ids = itertools.count(1)
        self._completed: list[ScheduledTask] = []
        self._service_ewma = ServiceTimeEwma()
        self._weights: dict[str, float] = {}
        self.shards: list[FleetScheduler] = []
        self._build_shards(shards)
        self.queue = _ShardedQueueView(self)
        self.leases = _ShardedLeaseView(self)
        self._steals_c = world.metrics.counter(
            "scheduler_steals_total",
            "Tasks claimed cross-shard by work-stealing",
            labelnames=("thief", "victim"))

    def _build_shards(self, shards: int) -> None:
        """Construct the per-shard schedulers and merge worker identity."""
        config = self.config
        self.n_shards = shards
        self.shards = []
        for s in range(shards):
            global_ids = [i for i in range(config.workers) if i % shards == s]
            shard_cfg = replace(config, workers=len(global_ids), worker_hosts=())
            shard = FleetScheduler(
                self.world, shard_cfg, self.fold_batch,
                shard=str(s),
                worker_prefix="w" if shards == 1 else f"s{s}w",
                service_ewma=self._service_ewma,
            )
            for worker, gid in zip(shard.workers, global_ids):
                worker.host = (config.worker_hosts[gid]
                               if gid < len(config.worker_hosts) else None)
            # retry-after hints pace on the *fleet* drain rate, so two
            # shards at equal depth quote equal backoff
            shard.admission.workers = max(1, config.workers)
            shard._task_ids = self._task_ids
            shard._completed = self._completed
            self.shards.append(shard)
        # one worker directory shared by every shard: a victim shard must
        # be able to find a foreign thief worker when its lease lapses,
        # and the heartbeat sweep must see every claimant's host
        merged: dict[str, Worker] = {}
        for shard in self.shards:
            for worker in shard.workers:
                merged[worker.worker_id] = worker
        for shard in self.shards:
            shard._workers_by_id = merged
        for user, weight in self._weights.items():
            self.shard_for(user).set_weight(user, weight)

    # -- routing -----------------------------------------------------------

    def shard_index(self, user: str) -> int:
        """The home shard index for a user."""
        return user_shard(user, self.n_shards)

    def shard_for(self, user: str) -> FleetScheduler:
        """The home shard for a user."""
        return self.shards[self.shard_index(user)]

    # -- the FleetScheduler surface ---------------------------------------

    def next_task_id(self) -> str:
        """A fresh fleet-scoped task id (one counter across all shards)."""
        return f"task-{next(self._task_ids):06d}"

    def submit(self, task: ScheduledTask) -> ScheduledTask:
        """Route a submission to its user's home shard (or raise typed
        backpressure from that shard's admission door)."""
        return self.shard_for(task.user).submit(task)

    def set_weight(self, user: str, weight: float) -> None:
        """Assign a user's fair-share weight on their home shard."""
        self._weights[user] = weight
        self.shard_for(user).set_weight(user, weight)

    @property
    def completed_tasks(self) -> tuple[ScheduledTask, ...]:
        """Tasks serviced to completion, in fleet-wide completion order."""
        return tuple(self._completed)

    @property
    def admission(self):
        """Shard 0's admission controller (every shard quotes the same
        retry-after hints through the shared EWMA)."""
        return self.shards[0].admission

    @property
    def workers(self) -> list[Worker]:
        """Every worker across every shard, in shard order."""
        return [w for shard in self.shards for w in shard.workers]

    # -- the drain loop ----------------------------------------------------

    def run_until_idle(self, max_ticks: int | None = None) -> int:
        """Drain every shard; identical to the single-scheduler loop at N=1.

        One heartbeat sweep covers the whole fleet (same label, same
        interval as the unsharded loop), every iteration flushes batches
        and requeues lapsed leases on each shard in shard order, and the
        tick claims across all shards at one virtual instant before
        executing serially.
        """
        serviced = 0
        ticks = 0
        sweep = self.world.scheduler.every(
            self.config.heartbeat_s, self._sweep_heartbeats,
            label="scheduler.heartbeat-sweep")
        try:
            while True:
                for shard in self.shards:
                    shard._flush_batches()
                    shard._requeue_lapsed()
                if all(not len(s.queue) and not len(s.leases)
                       for s in self.shards):
                    break
                ticks += 1
                if max_ticks is not None and ticks > max_ticks:
                    raise SchedulerError(
                        f"drain did not converge within {max_ticks} ticks")
                serviced += self._tick()
                for shard in self.shards:
                    shard._depth_g.set(len(shard.queue) + len(shard.coalescer))
        finally:
            sweep.cancel()
        for shard in self.shards:
            shard._fair_error_g.set(shard.queue.fair_share_error())
        return serviced

    def _sweep_heartbeats(self) -> None:
        for shard in self.shards:
            shard._sweep_heartbeats()

    def _pick_victim(self, thief_index: int) -> FleetScheduler | None:
        """The deepest foreign shard with queued work; ties break to the
        lowest shard index.  Pure function of queue depths: determinism
        of the steal protocol rests here."""
        best: FleetScheduler | None = None
        best_depth = 0
        for idx, shard in enumerate(self.shards):
            if idx == thief_index:
                continue
            depth = len(shard.queue)
            if depth > best_depth:
                best, best_depth = shard, depth
        return best

    def _tick(self) -> int:
        """One fleet claim round: local claims, then steals, then execution.

        All claims (local and stolen) happen at the same virtual instant;
        execution is serial in claim order, exactly like the single
        scheduler.  A worker only reaches the steal phase when its home
        shard had nothing runnable for it, so local dispatch always wins
        the steal-vs-local tie by construction.
        """
        world = self.world
        now = world.now
        claims: list[tuple[FleetScheduler, Worker, Lease]] = []
        free_by_shard: list[list[Worker]] = []
        for shard in self.shards:
            shard_claims, free, alive = shard._claim_phase(now)
            shard._workers_alive_g.set(alive)
            claims.extend((shard, w, lease) for w, lease in shard_claims)
            free_by_shard.append(free)

        if self.n_shards > 1:
            for thief_index, free in enumerate(free_by_shard):
                for worker in free:
                    victim = self._pick_victim(thief_index)
                    if victim is None:
                        break  # every foreign queue is empty
                    lease = victim._claim_for(worker, now)
                    if lease is None:
                        continue  # victim's heads all inadmissible
                    self._steals_c.inc(
                        thief=str(thief_index), victim=victim.shard)
                    world.emit(
                        "scheduler.steal", "idle worker stole cross-shard",
                        task=lease.task.task_id, worker=worker.worker_id,
                        thief_shard=thief_index,
                        victim_shard=int(victim.shard),
                        shard=victim.shard,
                        trace=lease.task.trace_id or None,
                    )
                    if not lease.abandoned:
                        claims.append((victim, worker, lease))

        executed = 0
        for shard, worker, lease in claims:
            shard._execute(worker, lease)
            executed += 1
        if not claims:
            self._wait_for_next_event(now)
        return executed

    def _wait_for_next_event(self, now: float) -> None:
        """No shard can run anything: jump the one shared clock to the
        earliest wakeup across every shard."""
        future: list[float] = []
        for shard in self.shards:
            future.extend(shard._next_event_candidates(now))
        if not future:
            raise SchedulerError(
                "scheduler stalled: tasks queued but no worker can ever run them"
            )
        self.world.advance_to(min(future))

    # -- resharding --------------------------------------------------------

    def reshard(self, shards: int) -> None:
        """Rehash users across a new shard count (quiescent fleets only).

        Migration: queued tasks re-home in task-id order (the fleet-wide
        submission order), each user's lane state (weight, virtual time,
        delivered bytes) moves with them, and every new shard starts at
        the fleet's maximum global virtual time so no lane earns credit
        from the move.  Outstanding leases or unflushed batches make the
        move ambiguous, so they are refused rather than guessed at.
        """
        if shards < 1:
            raise ValueError(f"shards must be positive (got {shards})")
        if self.config.workers < shards:
            raise ValueError(
                f"need at least one worker per shard "
                f"(workers={self.config.workers}, shards={shards})")
        if any(len(s.leases) for s in self.shards):
            raise SchedulerError("reshard requires a quiescent fleet "
                                 "(outstanding leases)")
        if any(len(s.coalescer) for s in self.shards):
            raise SchedulerError("reshard requires a quiescent fleet "
                                 "(unflushed batch buckets)")
        queued = sorted(
            (t for s in self.shards for t in s.queue.tasks()),
            key=lambda t: t.task_id)
        lanes: dict[str, tuple[float, float, int]] = {}
        fleet_vtime = 0.0
        for shard in self.shards:
            fleet_vtime = max(fleet_vtime, shard.queue.global_vtime)
            for row in shard.queue.lane_stats():
                lanes[row["user"]] = (
                    row["weight"], row["vtime"], row["delivered_bytes"])
        old_n = self.n_shards
        self._build_shards(shards)
        for shard in self.shards:
            shard.queue._global_vtime = fleet_vtime
        for user, (weight, vtime, delivered) in lanes.items():
            lane = self.shard_for(user).queue._lane(user)
            lane.weight = weight
            lane.vtime = max(vtime, fleet_vtime)
            lane.delivered_bytes = delivered
        for task in queued:
            self.shard_for(task.user).queue.push(task)
        self.world.emit(
            "scheduler.resharded", "users rehashed across new shard count",
            old_shards=old_n, new_shards=shards, migrated=len(queued),
        )

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Fleet state for dumps: per-shard snapshots plus fleet totals."""
        return {
            "now": self.world.now,
            "n_shards": self.n_shards,
            "queued_total": len(self.queue),
            "leases_total": len(self.leases),
            "shards": [
                {"shard": idx, **shard.snapshot()}
                for idx, shard in enumerate(self.shards)
            ],
        }


def scheduler_fingerprint(world: "World", scheduler) -> dict[str, Any]:
    """The PR-5 equivalence fingerprint, scheduler-shape agnostic.

    Works for both :class:`FleetScheduler` and
    :class:`ShardedFleetScheduler`: completion order by task id,
    delivered bytes per user, every lifecycle count summed across all
    label series, and the virtual clock.  Two runs with equal
    fingerprints dispatched the same work in the same order with the
    same failures — the bit-for-bit N=1 gate compares nothing else.
    """
    metrics = world.metrics

    def total(name: str) -> float:
        metric = metrics.get(name)
        return metric.total() if metric is not None else 0.0

    completed = scheduler.completed_tasks
    return {
        "completion_order": [t.task_id for t in completed],
        "delivered_bytes": {t.task_id: t.delivered_bytes for t in completed},
        "bytes_by_user": scheduler.queue.delivered_bytes(),
        "submitted": total("scheduler_submitted_total"),
        "completed": total("scheduler_completed_total"),
        "failed": total("scheduler_task_failures_total"),
        "requeued": total("scheduler_requeued_total"),
        "expired": total("scheduler_lease_expirations_total"),
        "crashes": total("scheduler_worker_crashes_total"),
        "batches": total("scheduler_batches_coalesced_total"),
        "batched_files": total("scheduler_batched_files_total"),
        "virtual_clock": world.now,
    }
