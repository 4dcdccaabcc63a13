"""The per-job flight recorder: a black box for fleet transfers.

Operating a hosted transfer service means answering "what happened to
*this* job?" long after it ran — why was its queue wait at p99, which
worker crashed under it, how many restart markers did recovery absorb.
The :class:`FlightRecorder` answers from what the world already keeps:
when read, it folds the scheduler / recovery / transfer events of the
world's :class:`~repro.util.logging.EventLog` into one causal
:class:`FlightRecord` per task — submit → admission verdict → queue
(with its fair-share lane virtual start tag) → claim/lease → dispatch →
every retry / restart-marker / breaker event → completion.

Correlation works in two steps.  Scheduler events carry an explicit
``task=`` field and bind directly.  Recovery and transfer events carry
no task field, but they fire *inside* the scheduler's claim span, so
their ``trace_id`` matches the trace the scheduler bound to the task at
dispatch time (the ``scheduler.dispatch`` event) — the fold keeps a
``trace_id → record`` index and attaches them causally.  The submit
span's trace id becomes the record's primary :attr:`FlightRecord.trace_id`,
which is exactly the id histograms capture as exemplars, so a p99
bucket's exemplar resolves to a full flight record via :meth:`by_trace`.

The records are a view of the log: reading them needs
``World(trace=True)`` (otherwise it raises
:class:`~repro.errors.TelemetryNotRecordedError`, as the log does), and
the log's ``event_capacity`` bounds them — a task whose early events the
log dropped keeps a partial record that is not
:attr:`~FlightRecord.complete`.  Each record keeps at most
:data:`EVENTS_PER_RECORD` events (dropped counts are kept).  The log is
folded at most once per log state, so reads with no event logged
between them return the same record objects.  The whole store dumps as
JSONL — the black box CI uploads when a chaos matrix job fails.  Nothing
here touches the wall clock or runs per event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.util.logging import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World

#: bound on events kept per record
EVENTS_PER_RECORD = 256

#: event-category prefixes that land in flight records when trace-bound
_CAUSAL_PREFIXES = (
    "recovery.",
    "gridftp.transfer.",
    "globusonline.",
    "slo.",
    "archive.",
)


@dataclass(frozen=True, slots=True)
class FlightEvent:
    """One timeline entry inside a flight record."""

    time: float
    kind: str
    detail: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"time": self.time, "kind": self.kind, "detail": dict(self.detail)}


@dataclass
class FlightRecord:
    """The assembled causal history of one scheduled task."""

    task_id: str
    user: str = ""
    job_id: str = ""
    src_endpoint: str = ""
    dst_endpoint: str = ""
    #: the submit span's trace id — the exemplar key for this record
    trace_id: str = ""
    #: home scheduler shard (sharded control plane only; "" unsharded)
    shard: str = ""
    #: every trace bound to this task (submit trace + one per dispatch)
    trace_ids: list[str] = field(default_factory=list)
    status: str = "queued"
    size_hint: int = 0
    delivered_bytes: int = 0
    attempts: int = 0
    #: recovery-loop faults absorbed while this task executed
    recovery_faults: int = 0
    #: pooled control channels reused while this task executed
    session_reuses: int = 0
    #: restart markers discarded/truncated while this task executed
    marker_corruptions: int = 0
    lane_vtime: float | None = None
    submitted_at: float | None = None
    claimed_at: float | None = None
    completed_at: float | None = None
    error: str = ""
    events: list[FlightEvent] = field(default_factory=list)
    dropped_events: int = 0

    @property
    def complete(self) -> bool:
        """The record covers the whole lifecycle (terminal state reached)."""
        return (
            self.status in ("done", "failed")
            and self.submitted_at is not None
            and self.completed_at is not None
        )

    @property
    def queue_wait_s(self) -> float:
        """Virtual seconds between submit and first claim (0 if unclaimed)."""
        if self.submitted_at is None or self.claimed_at is None:
            return 0.0
        return self.claimed_at - self.submitted_at

    @property
    def total_s(self) -> float:
        """Virtual seconds from submit to completion (0 while in flight)."""
        if self.submitted_at is None or self.completed_at is None:
            return 0.0
        return self.completed_at - self.submitted_at

    def events_of(self, kind: str) -> list[FlightEvent]:
        """Timeline entries whose kind starts with ``kind``."""
        return [ev for ev in self.events if ev.kind.startswith(kind)]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict (the JSONL dump row)."""
        return {
            "task_id": self.task_id,
            "user": self.user,
            "job_id": self.job_id,
            "src_endpoint": self.src_endpoint,
            "dst_endpoint": self.dst_endpoint,
            "trace_id": self.trace_id,
            "shard": self.shard,
            "trace_ids": list(self.trace_ids),
            "status": self.status,
            "size_hint": self.size_hint,
            "delivered_bytes": self.delivered_bytes,
            "attempts": self.attempts,
            "recovery_faults": self.recovery_faults,
            "session_reuses": self.session_reuses,
            "marker_corruptions": self.marker_corruptions,
            "lane_vtime": self.lane_vtime,
            "submitted_at": self.submitted_at,
            "claimed_at": self.claimed_at,
            "completed_at": self.completed_at,
            "queue_wait_s": self.queue_wait_s,
            "total_s": self.total_s,
            "error": self.error,
            "dropped_events": self.dropped_events,
            "events": [ev.to_dict() for ev in self.events],
        }


def _append(rec: FlightRecord, ev: Event) -> None:
    if len(rec.events) >= EVENTS_PER_RECORD:
        rec.dropped_events += 1
        return
    rec.events.append(FlightEvent(ev.time, ev.category, dict(ev.fields)))


def _bind_trace(by_trace: dict[str, FlightRecord], rec: FlightRecord,
                trace_id: str | None) -> None:
    if trace_id and trace_id not in rec.trace_ids:
        rec.trace_ids.append(trace_id)
        by_trace[trace_id] = rec


def _fold(events: Iterable[Event]) -> tuple[
        dict[str, FlightRecord], dict[str, FlightRecord], list[FlightEvent]]:
    """Records by task id, records by bound trace id, and rejections."""
    records: dict[str, FlightRecord] = {}
    by_trace: dict[str, FlightRecord] = {}
    rejections: list[FlightEvent] = []
    for ev in events:
        cat = ev.category
        if not cat.startswith("scheduler."):
            if ev.trace_id is not None and cat.startswith(_CAUSAL_PREFIXES):
                rec = by_trace.get(ev.trace_id)
                if rec is not None:
                    _append(rec, ev)
                    if cat == "recovery.fault":
                        rec.recovery_faults += 1
                    elif cat in ("recovery.marker_corrupt",
                                 "recovery.marker_truncated"):
                        rec.marker_corruptions += 1
                    elif cat == "globusonline.session.reused":
                        rec.session_reuses += 1
            continue
        fields = ev.fields
        if cat == "scheduler.rejected":
            rejections.append(FlightEvent(ev.time, cat, dict(fields)))
            continue
        task_id = fields.get("task")
        if not task_id:
            continue
        rec = records.get(task_id)
        if rec is None:
            rec = records[task_id] = FlightRecord(task_id=task_id)
        _append(rec, ev)
        if cat == "scheduler.submitted":
            rec.user = fields.get("user", rec.user)
            rec.job_id = fields.get("job", rec.job_id)
            rec.size_hint = fields.get("bytes", rec.size_hint)
            rec.src_endpoint = fields.get("src", rec.src_endpoint)
            rec.dst_endpoint = fields.get("dst", rec.dst_endpoint)
            rec.lane_vtime = fields.get("lane_vtime", rec.lane_vtime)
            rec.shard = str(fields.get("shard", rec.shard))
            rec.submitted_at = ev.time
            if ev.trace_id is not None and not rec.trace_id:
                rec.trace_id = ev.trace_id
            _bind_trace(by_trace, rec, ev.trace_id)
        elif cat == "scheduler.claimed":
            if rec.claimed_at is None:
                rec.claimed_at = ev.time
            rec.attempts = fields.get("attempt", rec.attempts)
            rec.status = "claimed"
        elif cat == "scheduler.dispatch":
            # the claim span's trace: recovery/transfer events of this
            # execution carry it, and bind causally through it
            _bind_trace(by_trace, rec, ev.trace_id)
        elif cat == "scheduler.task_done":
            rec.status = "done"
            rec.completed_at = ev.time
            rec.delivered_bytes = fields.get("bytes", rec.delivered_bytes)
            rec.attempts = fields.get("attempts", rec.attempts)
        elif cat == "scheduler.task_failed":
            rec.status = "failed"
            rec.completed_at = ev.time
            rec.error = str(fields.get("error", ""))
        elif cat == "scheduler.lease_expired":
            rec.status = "queued"
    return records, by_trace, rejections


class FlightRecorder:
    """Per-task flight records, folded from the world's event log on read."""

    def __init__(self, world: "World") -> None:
        self.world = world
        #: the log's (length, dropped count) and last event at the last fold
        self._folded_at: tuple[int, int] | None = None
        self._last: Event | None = None
        self._records: dict[str, FlightRecord] = {}
        self._by_trace: dict[str, FlightRecord] = {}
        self._rejections: list[FlightEvent] = []

    def _view(self) -> dict[str, FlightRecord]:
        """The records, refolded if an event was logged since the last fold."""
        log = self.world.log
        events = log._kept()  # raises TelemetryNotRecordedError untraced
        state = (len(events), log.dropped_events)
        last = events[-1] if events else None
        if state != self._folded_at or last is not self._last:
            self._records, self._by_trace, self._rejections = _fold(events)
            self._folded_at, self._last = state, last
        return self._records

    def __len__(self) -> int:
        return len(self._view())

    # -- queries -----------------------------------------------------------

    @property
    def rejections(self) -> list[FlightEvent]:
        """Admission rejections, oldest first (no task id exists for these)."""
        self._view()
        return self._rejections

    def record(self, task_id: str) -> FlightRecord | None:
        """The flight record for one task id, or None."""
        return self._view().get(task_id)

    def by_trace(self, trace_id: str) -> FlightRecord | None:
        """Resolve any bound trace id (e.g. a metric exemplar) to its record."""
        self._view()
        return self._by_trace.get(trace_id)

    def records(self) -> Iterator[FlightRecord]:
        """Every record, oldest first."""
        return iter(self._view().values())

    def for_user(self, user: str) -> list[FlightRecord]:
        """Records belonging to one user."""
        return [r for r in self._view().values() if r.user == user]

    def for_endpoint(self, endpoint: str) -> list[FlightRecord]:
        """Records touching one endpoint (as source or destination)."""
        return [
            r for r in self._view().values()
            if endpoint in (r.src_endpoint, r.dst_endpoint)
        ]

    def slowest(self, n: int = 10, by: str = "total_s") -> list[FlightRecord]:
        """The ``n`` slowest records (``by`` = total_s or queue_wait_s)."""
        if by not in ("total_s", "queue_wait_s"):
            raise ValueError("by must be 'total_s' or 'queue_wait_s'")
        ranked = sorted(
            self._view().values(),
            key=lambda r: (-getattr(r, by), r.task_id),
        )
        return ranked[:n]

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Every record as JSON lines — the black-box dump."""
        return "\n".join(
            json.dumps(rec.to_dict(), sort_keys=True, default=str)
            for rec in self._view().values()
        )

    def dump(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns records written."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            fh.write(text + ("\n" if text else ""))
        return len(self._records)
