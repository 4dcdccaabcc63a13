"""End-to-end trace propagation over the virtual clock.

A transfer in this reproduction crosses many components — GCMU install,
MyProxy issuance, control channels on two servers, a DCSC exchange, the
data channel, Globus Online's retry loop — and the paper's operational
story (Figure 1 usage reports, ``112 Perf Marker`` monitoring, Section
VI fault recovery) depends on seeing that whole causal chain.  The
:class:`Tracer` gives every world a distributed-tracing view of itself:

* a :class:`TraceContext` (trace id + span id + parent) identifies where
  in the causal tree work is happening;
* :meth:`Tracer.span` is a context manager that opens a child span of
  whatever span is currently active (or starts a fresh trace at the
  root), records virtual start/end times, and marks spans that exit via
  an exception as errored;
* every :meth:`repro.sim.world.World.emit` call stamps the active
  context onto the event, so the flat event log and the span tree
  cross-reference each other;
* :class:`Trace` reconstructs the parent/child timeline for one trace
  id — the "what happened to transfer X" query.

Because all endpoints of a simulated transfer share one world, context
propagates across "processes" for free: a server handling a command
inside a client's control-channel span becomes its child, exactly as a
propagated trace header would behave in a real deployment.

Spans are recorded only by a ``World(trace=True)``.  Any other world's
tracer hands every :meth:`Tracer.span` call one shared no-op handle,
keeps nothing, and raises :class:`~repro.errors.TelemetryNotRecordedError`
when its spans or traces are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import TelemetryNotRecordedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World


@dataclass(slots=True)
class TraceContext:
    """Where in the causal tree a piece of work happens.

    Logically immutable; unfrozen because frozen-dataclass construction
    pays object.__setattr__ per field and one context is minted for
    every span on the fleet hot path.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @property
    def is_root(self) -> bool:
        """True for the first span of a trace."""
        return self.parent_id is None


@dataclass(slots=True)
class Span:
    """One timed operation inside a trace."""

    context: TraceContext
    name: str
    start_time: float
    end_time: float | None = None
    status: str = "ok"
    error: str = ""
    fields: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Virtual seconds between start and end (0 while still open)."""
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kv = " ".join(f"{k}={v}" for k, v in self.fields.items())
        flag = "" if self.status == "ok" else f" !{self.status}"
        return f"{self.name} [{self.duration_s:.3f}s]{flag} {kv}".rstrip()


@dataclass
class TimelineNode:
    """One span plus its children, as reconstructed by :meth:`Trace.timeline`."""

    span: Span
    children: list["TimelineNode"] = field(default_factory=list)

    def walk(self) -> Iterator[tuple[int, Span]]:
        """(depth, span) pairs in depth-first start order."""
        yield from self._walk(0)

    def _walk(self, depth: int) -> Iterator[tuple[int, Span]]:
        yield depth, self.span
        for child in self.children:
            yield from child._walk(depth + 1)


class Trace:
    """All spans sharing one trace id, with tree queries."""

    def __init__(self, trace_id: str, spans: list[Span]) -> None:
        self.trace_id = trace_id
        self.spans = sorted(spans, key=lambda s: (s.start_time, s.context.span_id))

    def __len__(self) -> int:
        return len(self.spans)

    def find(self, name: str) -> list[Span]:
        """Spans whose name starts with ``name``, in start order."""
        return [s for s in self.spans if s.name.startswith(name)]

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in start order."""
        return [s for s in self.spans if s.context.parent_id == span.context.span_id]

    def timeline(self) -> list[TimelineNode]:
        """The causal tree: root nodes (usually one) with nested children."""
        nodes = {s.context.span_id: TimelineNode(span=s) for s in self.spans}
        roots: list[TimelineNode] = []
        for s in self.spans:
            node = nodes[s.context.span_id]
            parent = s.context.parent_id
            if parent is not None and parent in nodes:
                nodes[parent].children.append(node)
            else:
                roots.append(node)
        return roots

    @property
    def duration_s(self) -> float:
        """Virtual span of the whole trace (first start to last end)."""
        if not self.spans:
            return 0.0
        start = min(s.start_time for s in self.spans)
        end = max(s.end_time if s.end_time is not None else s.start_time for s in self.spans)
        return end - start

    def render(self) -> str:
        """An indented text timeline (durations are virtual seconds)."""
        lines = [f"trace {self.trace_id} ({len(self.spans)} spans, {self.duration_s:.3f}s)"]
        for root in self.timeline():
            for depth, span in root.walk():
                mark = "" if span.status == "ok" else f"  !{span.status}: {span.error}"
                lines.append(
                    f"{'  ' * (depth + 1)}{span.name}"
                    f"  t={span.start_time:.3f} +{span.duration_s:.3f}s{mark}"
                )
        return "\n".join(lines)


class Tracer:
    """Per-world span factory and store.

    ``span_capacity`` bounds how many *completed* spans are retained
    (oldest evicted first), mirroring the event log's ring buffer: a
    fleet-scale run opens tens of thousands of spans, and an unbounded
    store makes every GC pass — and therefore every transfer — pay for
    all of history.  The default (None) keeps everything.

    With ``record=False`` (``World(trace=False)``, the default) the
    tracer records nothing: :meth:`span` returns the shared no-op
    handle, :attr:`current` stays None, and every query raises
    :class:`~repro.errors.TelemetryNotRecordedError`.
    """

    def __init__(self, world: "World", span_capacity: int | None = None,
                 record: bool = True) -> None:
        if span_capacity is not None and span_capacity < 1:
            raise ValueError("span_capacity must be >= 1")
        self._world = world
        self.recording = record
        self._stack: list[Span] = []
        self._spans: list[Span] = []
        self._capacity = span_capacity
        self._trace_seq = 0
        self._span_seq = 0
        # free list of _SpanHandle objects: a handle is dead the moment
        # its ``with`` block exits, so recycling them spares one
        # allocation per span on the fleet hot path
        self._handle_pool: list["_SpanHandle"] = []

    def _evict(self) -> None:
        # amortized: let the store grow to 2x capacity, then trim the
        # oldest completed spans in one pass (open spans stay visible)
        cap = self._capacity
        if cap is None or len(self._spans) <= 2 * cap:
            return
        completed_over = len(self._spans) - cap
        kept: list[Span] = []
        for s in self._spans:
            if completed_over > 0 and s.end_time is not None:
                completed_over -= 1
                continue
            kept.append(s)
        self._spans = kept

    def _kept(self) -> list[Span]:
        if not self.recording:
            raise TelemetryNotRecordedError(
                "this world keeps no spans; build it with World(trace=True) to read them"
            )
        return self._spans

    # -- recording -----------------------------------------------------------

    @property
    def current(self) -> TraceContext | None:
        """The active span's context, or None outside any span."""
        return self._stack[-1].context if self._stack else None

    def span(self, name: str, **fields: Any) -> "_SpanHandle":
        """Open a child span of the active span (or a new root trace).

        Returns a context manager yielding the :class:`Span`.  Exceptions
        propagate, but mark the span ``status="error"`` with the
        exception recorded, so fault-interrupted work is visible in the
        timeline.  (A plain handle object, not a generator: span entry
        runs on every control-channel command, and the ``contextmanager``
        machinery was a measurable share of fleet drain time.)

        An unrecording tracer returns one shared no-op handle instead;
        its span has an empty trace id and drops field writes.
        """
        if not self.recording:
            return _NULL_HANDLE
        stack = self._stack
        if stack:
            parent = stack[-1].context
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            self._trace_seq += 1
            trace_id = f"trace-{self._trace_seq:04d}"
            parent_id = None
        self._span_seq += 1
        ctx = TraceContext(
            trace_id=trace_id, span_id=f"span-{self._span_seq:05d}", parent_id=parent_id
        )
        span = Span(context=ctx, name=name, start_time=self._world.now, fields=fields)
        stack.append(span)
        self._spans.append(span)
        pool = self._handle_pool
        if pool:
            handle = pool.pop()
            handle._span = span
            return handle
        return _SpanHandle(self, span)

    # -- queries --------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in open order."""
        return list(self._kept())

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in first-seen order."""
        seen: dict[str, None] = {}
        for s in self._kept():
            seen.setdefault(s.context.trace_id, None)
        return list(seen)

    def trace(self, trace_id: str) -> Trace:
        """The :class:`Trace` for one id (empty if unknown)."""
        return Trace(trace_id, [s for s in self._kept() if s.context.trace_id == trace_id])

    def traces(self) -> list[Trace]:
        """All traces, in first-seen order."""
        return [self.trace(tid) for tid in self.trace_ids()]

    def last_trace(self) -> Trace | None:
        """The most recently started trace, or None."""
        ids = self.trace_ids()
        return self.trace(ids[-1]) if ids else None


class _SpanHandle:
    """Context manager closing one span (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer | None, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        if tracer is None:  # the shared no-op handle: nothing to close
            return False
        span = self._span
        if exc is not None:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
        span.end_time = tracer._world.now
        tracer._stack.pop()
        cap = tracer._capacity
        if cap is not None and len(tracer._spans) > 2 * cap:
            tracer._evict()
        self._span = None  # drop the reference before pooling the handle
        if len(tracer._handle_pool) < 64:
            tracer._handle_pool.append(self)
        return False


class _DroppedFields(dict):
    """The fields of the no-op handle's span: writes are dropped, so
    nothing a caller attaches to an unrecorded span outlives its block."""

    __slots__ = ()

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def update(self, *args: Any, **kwargs: Any) -> None:
        pass


#: What ``with tracer.span(...) as span`` binds on an unrecording tracer:
#: one shared span with an empty trace id that keeps no fields.
_NULL_SPAN = Span(context=TraceContext(trace_id="", span_id=""), name="",
                  start_time=0.0, fields=_DroppedFields())

# A real _SpanHandle, so wrappers of _SpanHandle.__exit__ still see every exit.
_NULL_HANDLE = _SpanHandle(None, _NULL_SPAN)
