"""The World: one object tying a simulation run together.

A :class:`World` owns the virtual clock, the scheduler, the fault plan,
the deterministic RNG factory, the event log, and the network.  Every
higher-level component (servers, CAs, the Globus Online service) is
constructed against a world and reads time/network/faults from it.

Creating a world is the first line of every example and benchmark::

    world = World(seed=7)
    site = world.network.add_host("alcf-dtn1", nic_bps=gbps(10))

A world keeps spans and events only when asked, with ``World(trace=True)``;
metrics are always on (see :class:`World`).
"""

from __future__ import annotations

from typing import Any

from repro.errors import TelemetryNotRecordedError
from repro.sim.clock import Clock
from repro.sim.events import Scheduler
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.random import RngFactory
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer
from repro.util import memo
from repro.util.logging import Event, EventLog


class World:
    """Container for one reproducible simulation run.

    ``trace`` chooses what the world records about itself.  Metrics are
    kept either way.  At ``trace=False`` (the default) no span or event
    is kept: ``tracer.span`` hands out one shared no-op handle, ``emit``
    builds an event only when the log has subscribers (such as the
    Figure 1 usage collector), and reading ``log`` or
    ``tracer`` raises :class:`~repro.errors.TelemetryNotRecordedError`.
    ``trace=True`` keeps every span and event, and is required by
    :meth:`enable_observability`.

    At ``trace=True``, ``event_capacity`` bounds the event log and
    ``span_capacity`` the tracer's retained spans (ring-buffer eviction)
    for fleet-scale runs; the defaults keep everything.  At
    ``trace=False`` they bound nothing, since nothing is kept.

    Building a world reads ``REPRO_NO_SESSION_CACHE`` (see
    :mod:`repro.util.memo`): the session caches follow the variable as
    it was when the newest world was built.
    """

    def __init__(
        self,
        seed: int = 0,
        start_time: float = 0.0,
        event_capacity: int | None = None,
        span_capacity: int | None = None,
        trace: bool = False,
    ) -> None:
        memo.read_switch()
        self.clock = Clock(start_time)
        self.scheduler = Scheduler(self.clock)
        self.faults = FaultPlan()
        self.rng = RngFactory(seed)
        self.trace = trace
        self.log = EventLog(capacity=event_capacity, record=trace)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self, span_capacity=span_capacity, record=trace)
        # Imported here to avoid a circular import: repro.net needs World
        # type hints only, but World owns the concrete Network.
        from repro.net.topology import Network

        self.network = Network(self)
        # Seeded chaos: disabled until configured and armed, but always
        # present so recovery code can route restart markers through it.
        self.chaos = FaultInjector(self)
        # Fleet observability (flight recorder + SLO engine) is opt-in:
        # both stay None until enable_observability() attaches them.  The
        # recorder reads the event log when asked; the SLO engine is the
        # one that subscribes to it, so a plain world pays nothing.
        self.flight_recorder = None
        self.slo = None

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.clock._now  # one property hop, not two: hottest call in the tree

    def advance(self, dt: float) -> float:
        """Advance the clock and fire any scheduler events that came due."""
        t = self.clock.advance(dt)
        self.scheduler.fire_due()
        return t

    def advance_to(self, t: float) -> float:
        """Advance the clock to absolute time ``t`` and fire due events."""
        now = self.clock.advance_to(t)
        self.scheduler.fire_due()
        return now

    # -- telemetry -----------------------------------------------------------

    def emit(self, category: str, message: str, **fields: Any):
        """Append a structured event stamped with the current virtual time.

        Events emitted inside an active tracer span carry its trace and
        span ids, tying the flat log to the causal tree.  At
        ``trace=False`` the event is built only for the log's
        subscribers, and None is returned when there are none.
        """
        log = self.log
        if not self.trace:
            if log._subscribers:
                return log.emit_event(Event(self.clock._now, category, message, fields))
            return None
        stack = self.tracer._stack
        if stack:
            ctx = stack[-1].context
            trace_id, span_id = ctx.trace_id, ctx.span_id
        else:
            trace_id = span_id = None
        # build the Event here and hand it straight to the log: emit()
        # runs tens of thousands of times per drain, and the kwargs
        # repack through EventLog.emit was a measurable slice of it
        return log.emit_event(Event(
            self.clock._now, category, message, fields, trace_id, span_id,
        ))

    def span(self, name: str, **fields: Any):
        """Open a tracer span (convenience for ``world.tracer.span``)."""
        return self.tracer.span(name, **fields)

    def enable_observability(
        self,
        *,
        slos=None,
        queue_wait_slo_s: float = 600.0,
    ):
        """Attach the flight recorder and SLO engine to this world.

        Idempotent: a second call returns the already-attached pair.
        ``slos`` overrides the default objective set; ``queue_wait_slo_s``
        tunes the stock queue-wait latency cut when defaults are used.
        The SLO engine subscribes to the event log and sees only the
        events logged after this call; the flight recorder folds the
        log when read, so its records cover every event the log holds.
        Both are built on spans and events, so a world without
        ``trace=True`` raises :class:`~repro.errors.TelemetryNotRecordedError`.
        """
        if not self.trace:
            raise TelemetryNotRecordedError(
                "flight recording needs a world that keeps spans and events: World(trace=True)"
            )
        if self.flight_recorder is not None and self.slo is not None:
            return self.flight_recorder, self.slo
        # Lazy imports: telemetry.flightrecorder/slo import scheduler-facing
        # types and must not load for worlds that never observe.
        from repro.telemetry.flightrecorder import FlightRecorder
        from repro.telemetry.slo import SLOEngine, default_slos, wire_slos

        if self.flight_recorder is None:
            self.flight_recorder = FlightRecorder(self)
        if self.slo is None:
            if slos is None:
                slos = default_slos(queue_wait_slo_s=queue_wait_slo_s)
            self.slo = SLOEngine(self, slos)
            wire_slos(self, self.slo)
        return self.flight_recorder, self.slo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        events = len(self.log) if self.trace else "unrecorded"
        return (
            f"World(now={self.clock.now:.3f}, hosts={len(self.network.hosts)}, "
            f"events={events})"
        )
