"""Declarative SLOs with multi-window burn-rate alerting.

"Is the fleet burning its error budget?" is the question an operator of
the hosted service asks before anything else.  This module answers it
the way production SRE practice does, but over **virtual time**:

* a :class:`ServiceObjective` declares a target good-event ratio (e.g.
  "99% of queue waits complete within 120 virtual seconds") plus the
  burn windows that page;
* the :class:`SLOEngine` ingests good/bad samples, keeps per-window
  rolling counts over the world's virtual clock, and computes **burn
  rate** = observed error rate / error budget per window;
* an alert fires when *every* window burns past its threshold (the
  standard fast+slow multi-window AND rule, which suppresses blips
  without missing slow bleeds) and clears with the fast window —
  emitted as typed ``slo.alert_fired`` / ``slo.alert_cleared`` events
  on the EventLog, carrying the trace id of the most recent bad sample
  so the alert links straight to a flight record;
* every evaluation refreshes ``slo_*`` gauges
  (``slo_burn_rate{slo,window}``, ``slo_error_budget_remaining{slo}``,
  ``slo_alert_active{slo}``) and counters
  (``slo_events_total{slo,outcome}``, ``slo_alerts_total{slo}``), all
  pre-registered at attach time.

:func:`wire_slos` subscribes the engine to the event log so the fleet
scheduler and recovery engine feed it without holding a reference:
``scheduler.claimed`` (queue wait vs threshold), ``scheduler.task_done``
/ ``task_failed`` (success ratio), ``scheduler.claimed`` vs
``scheduler.lease_expired`` (lease-expiry rate), and
``recovery.succeeded`` / ``recovery.exhausted`` (retry budget).
Everything is seed-pure; a world that never attaches an engine pays
nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World
    from repro.telemetry.metrics import Counter, Gauge
    from repro.util.logging import Event


@dataclass(frozen=True)
class BurnWindow:
    """One rolling window and the burn-rate multiple that pages on it."""

    window_s: float
    threshold: float

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")

    @property
    def label(self) -> str:
        return f"{self.window_s:g}s"


@dataclass(frozen=True)
class ServiceObjective:
    """One declarative SLO: a target ratio plus its paging windows."""

    name: str
    description: str
    objective: float  # target good-event ratio in (0, 1)
    windows: tuple[BurnWindow, ...] = (
        BurnWindow(300.0, 6.0),
        BurnWindow(1800.0, 3.0),
    )
    #: a window with fewer samples than this cannot page
    min_events: int = 20
    #: latency SLOs: the good/bad cut for wired wait samples
    threshold_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if not self.windows:
            raise ValueError("at least one burn window is required")

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad-event ratio."""
        return 1.0 - self.objective


def default_slos(
    queue_wait_slo_s: float = 600.0,
    queue_wait_objective: float = 0.99,
) -> tuple[ServiceObjective, ...]:
    """The fleet's stock objectives (ISSUE: wait p99, success, retries, leases)."""
    return (
        ServiceObjective(
            name="queue_wait_p99",
            description=f"{queue_wait_objective:.0%} of claims wait <= "
                        f"{queue_wait_slo_s:g} virtual seconds",
            objective=queue_wait_objective,
            threshold_s=queue_wait_slo_s,
        ),
        ServiceObjective(
            name="transfer_success",
            description="99% of scheduled tasks complete successfully",
            objective=0.99,
        ),
        ServiceObjective(
            name="retry_budget",
            description="90% of recovery-loop attempts are first attempts",
            objective=0.90,
        ),
        ServiceObjective(
            name="lease_expiry",
            description="95% of claim events are grants, not lease expiries",
            objective=0.95,
        ),
    )


@dataclass
class _WindowState:
    """Rolling (time, total, bad) samples plus running sums for one window."""

    samples: deque = field(default_factory=deque)
    total: int = 0
    bad: int = 0

    def add(self, t: float, total: int, bad: int, horizon: float) -> None:
        self.samples.append((t, total, bad))
        self.total += total
        self.bad += bad
        self.prune(t, horizon)

    def prune(self, now: float, horizon: float) -> None:
        cutoff = now - horizon
        samples = self.samples
        while samples and samples[0][0] <= cutoff:
            _, total, bad = samples.popleft()
            self.total -= total
            self.bad -= bad

    def error_rate(self) -> float:
        return self.bad / self.total if self.total else 0.0


class _SloState:
    """One objective's rolling windows and its metric series, bound once."""

    __slots__ = ("spec", "windows", "alert_active", "last_bad_trace",
                 "good_total", "bad_total", "alerts_fired", "longest",
                 "fastest", "burn_g", "budget_g", "alert_g", "good_c",
                 "bad_c", "alerts_c")

    def __init__(self, spec: ServiceObjective, burn_g: "Gauge",
                 budget_g: "Gauge", alert_g: "Gauge", events_c: "Counter",
                 alerts_c: "Counter") -> None:
        self.spec = spec
        self.windows = [_WindowState() for _ in spec.windows]
        self.alert_active = False
        self.last_bad_trace: str | None = None
        self.good_total = 0
        self.bad_total = 0
        self.alerts_fired = 0
        spans = [w.window_s for w in spec.windows]
        # the budget is read off the longest window; alerts clear with the fastest
        self.longest = spans.index(max(spans))
        self.fastest = spans.index(min(spans))
        name = spec.name
        self.burn_g = [burn_g.labels(slo=name, window=w.label)
                       for w in spec.windows]
        self.budget_g = budget_g.labels(slo=name)
        self.alert_g = alert_g.labels(slo=name)
        self.good_c = events_c.labels(slo=name, outcome="good")
        self.bad_c = events_c.labels(slo=name, outcome="bad")
        self.alerts_c = alerts_c.labels(slo=name)
        self.alert_g.set(0)
        self.good_c.inc(0)
        self.bad_c.inc(0)
        self.alerts_c.inc(0)
        self.budget_g.set(1.0)
        for child in self.burn_g:
            child.set(0.0)


class SLOEngine:
    """Rolling-window burn-rate evaluation over the virtual clock."""

    def __init__(
        self,
        world: "World",
        slos: Sequence[ServiceObjective] | None = None,
    ) -> None:
        self.world = world
        specs = tuple(slos) if slos is not None else default_slos()
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        metrics = world.metrics
        series = (
            metrics.gauge(
                "slo_burn_rate",
                "Error-budget burn-rate multiple per rolling window",
                labelnames=("slo", "window")),
            metrics.gauge(
                "slo_error_budget_remaining",
                "Fraction of the error budget left in the longest window",
                labelnames=("slo",)),
            metrics.gauge(
                "slo_alert_active", "1 while the SLO's burn-rate alert is firing",
                labelnames=("slo",)),
            metrics.counter(
                "slo_events_total", "SLO samples ingested, by outcome",
                labelnames=("slo", "outcome")),
            metrics.counter(
                "slo_alerts_total", "Burn-rate alerts fired", labelnames=("slo",)),
        )
        self._states: dict[str, _SloState] = {
            spec.name: _SloState(spec, *series) for spec in specs
        }

    # -- declaration ------------------------------------------------------

    @property
    def slos(self) -> tuple[ServiceObjective, ...]:
        """The declared objectives."""
        return tuple(state.spec for state in self._states.values())

    def slo(self, name: str) -> ServiceObjective:
        """Look up one objective by name."""
        return self._states[name].spec

    # -- ingestion --------------------------------------------------------

    def record(self, name: str, good: int = 0, bad: int = 0,
               trace_id: str | None = None) -> None:
        """Ingest ``good``/``bad`` sample counts for one SLO and re-evaluate."""
        state = self._states.get(name)
        if state is None:
            raise KeyError(f"unknown SLO {name!r}")
        if good < 0 or bad < 0:
            raise ValueError("sample counts cannot be negative")
        total = good + bad
        if total == 0:
            return
        now = self.world.now
        state.good_total += good
        state.bad_total += bad
        if good:
            state.good_c.inc(good)
        if bad:
            state.bad_c.inc(bad)
            if trace_id is not None:
                state.last_bad_trace = trace_id
        for wstate, window in zip(state.windows, state.spec.windows):
            wstate.add(now, total, bad, window.window_s)
        self._evaluate(state)

    def observe_latency(self, name: str, value_s: float,
                        trace_id: str | None = None) -> None:
        """Ingest one latency sample against the SLO's ``threshold_s``."""
        spec = self._states[name].spec
        if spec.threshold_s is None:
            raise ValueError(f"SLO {name!r} has no latency threshold")
        if value_s <= spec.threshold_s:
            self.record(name, good=1)
        else:
            self.record(name, bad=1, trace_id=trace_id)

    # -- evaluation -------------------------------------------------------

    def _evaluate(self, state: _SloState) -> None:
        spec = state.spec
        budget = spec.budget
        now = self.world.now
        burning = True
        burns: list[float] = []
        for wstate, window, burn_g in zip(state.windows, spec.windows,
                                          state.burn_g):
            wstate.prune(now, window.window_s)
            burn = wstate.error_rate() / budget
            burns.append(burn)
            burn_g.set(burn)
            if wstate.total < spec.min_events or burn < window.threshold:
                burning = False
        remaining = 1.0 - state.windows[state.longest].error_rate() / budget
        state.budget_g.set(remaining)
        if burning and not state.alert_active:
            state.alert_active = True
            state.alerts_fired += 1
            state.alert_g.set(1)
            state.alerts_c.inc()
            self.world.emit(
                "slo.alert_fired", f"SLO {spec.name} is burning its error budget",
                slo=spec.name,
                objective=spec.objective,
                burn_rates={w.label: round(b, 4)
                            for w, b in zip(spec.windows, burns)},
                budget_remaining=round(remaining, 4),
                exemplar_trace=state.last_bad_trace,
            )
        elif state.alert_active:
            # clear with the fastest window: recovery shows there first
            fastest = state.fastest
            if burns[fastest] < spec.windows[fastest].threshold:
                state.alert_active = False
                state.alert_g.set(0)
                self.world.emit(
                    "slo.alert_cleared", f"SLO {spec.name} burn subsided",
                    slo=spec.name,
                    burn_rates={w.label: round(b, 4)
                                for w, b in zip(spec.windows, burns)},
                )

    # -- introspection ----------------------------------------------------

    def alert_active(self, name: str) -> bool:
        """Is the named SLO's alert currently firing?"""
        return self._states[name].alert_active

    def status(self) -> list[dict[str, Any]]:
        """One summary row per SLO (the mission-control view)."""
        now = self.world.now
        out = []
        for state in self._states.values():
            spec = state.spec
            burns = {}
            for wstate, window in zip(state.windows, spec.windows):
                wstate.prune(now, window.window_s)
                burns[window.label] = round(
                    wstate.error_rate() / spec.budget, 3)
            out.append({
                "slo": spec.name,
                "objective": spec.objective,
                "good": state.good_total,
                "bad": state.bad_total,
                "burn": burns,
                "budget_remaining": round(
                    1.0 - state.windows[state.longest].error_rate() / spec.budget,
                    3),
                "alert": state.alert_active,
                "alerts_fired": state.alerts_fired,
                "exemplar_trace": state.last_bad_trace,
            })
        return out


def wire_slos(world: "World", engine: SLOEngine) -> None:
    """Feed the engine from scheduler/recovery events on the EventLog.

    Only objectives actually declared on the engine are wired; a custom
    engine with a subset of :func:`default_slos` names works unchanged.
    """
    names = {spec.name for spec in engine.slos}
    has_wait = "queue_wait_p99" in names
    has_success = "transfer_success" in names
    has_retry = "retry_budget" in names
    has_lease = "lease_expiry" in names

    def on_event(ev: "Event") -> None:
        cat = ev.category
        if cat == "scheduler.claimed":
            trace = ev.fields.get("trace")
            if has_wait:
                wait = ev.fields.get("wait_s")
                if wait is not None:
                    engine.observe_latency("queue_wait_p99", wait, trace_id=trace)
            if has_lease:
                engine.record("lease_expiry", good=1)
        elif cat == "scheduler.task_done":
            if has_success:
                engine.record("transfer_success", good=1)
        elif cat == "scheduler.task_failed":
            if has_success:
                engine.record("transfer_success", bad=1,
                              trace_id=ev.fields.get("trace"))
        elif cat == "scheduler.lease_expired":
            if has_lease:
                engine.record("lease_expiry", bad=1,
                              trace_id=ev.fields.get("trace"))
        elif cat == "recovery.succeeded":
            if has_retry:
                attempts = int(ev.fields.get("attempts", 1))
                engine.record("retry_budget", good=1, bad=max(0, attempts - 1),
                              trace_id=ev.trace_id)
        elif cat == "recovery.exhausted":
            if has_retry:
                attempts = int(ev.fields.get("attempts", 1))
                engine.record("retry_budget", bad=max(1, attempts),
                              trace_id=ev.trace_id)

    world.log.subscribe(on_event)
