"""Fault injection: scheduled outages and seeded chaos.

The reliability claims in the paper — restart markers, Globus Online
"restart the transfer from the last checkpoint" — only mean anything if
things actually fail.  Two layers live here:

* :class:`FaultPlan` holds *scheduled* faults.  Each is one
  :class:`Fault` record of one of four kinds: a link outage (``link``),
  a host crash-restart (``host``), a control-channel disconnect
  (``control``) or a bandwidth-degradation episode (``degradation``);
  ``plan.faults(kind)`` lists them.  The transfer engine consults the
  plan to decide whether a transfer window [start, end) is interrupted,
  and baselines consult it the same way so comparisons are
  apples-to-apples.

* :class:`FaultInjector` (owned by every :class:`~repro.sim.world.World`
  as ``world.chaos``) generates *adversarial* fault schedules from the
  world seed: Poisson link flaps, degradation episodes, host
  crash-restarts with configurable downtime, control-channel drops, and
  corrupted/truncated restart markers.  Every stream is derived from
  :class:`repro.sim.random.RngFactory`, so a chaos run is replayable
  bit-for-bit from its seed — ``arm()`` twice with the same seed and
  config produces the identical schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.world import World

#: the four fault kinds a plan schedules
KINDS = ("link", "host", "control", "degradation")


class _IntervalIndex:
    """Per-target interval lookup over scheduled faults.

    Chaos campaigns install thousands of faults, and a fleet-scale run
    asks "is this link down at t?" per transfer — a linear scan over
    every scheduled fault makes the *simulator* O(faults × transfers).
    This index keeps, per target, the faults sorted by onset plus a
    running maximum of their ends, so point queries are one bisect:
    some interval with ``start <= t`` covers ``t`` iff the prefix's max
    end exceeds ``t``.  Arrays are rebuilt lazily per target after a
    mutation (schedules are build-then-query, so rebuilds are rare).
    """

    # A built entry of None caches "this target has no faults at all" —
    # the common case on fleet hot paths (chaos arms worker hosts, not
    # DTNs), so point queries for clean targets cost one dict hit.

    def __init__(self) -> None:
        self._raw: dict[str, list[Fault]] = {}
        self._built: dict[str, tuple[list[Fault], list[float], list[float]] | None] = {}

    def __contains__(self, target: str) -> bool:
        return target in self._raw

    def add(self, target: str, fault: Fault) -> None:
        self._raw.setdefault(target, []).append(fault)
        self._built.pop(target, None)

    def clear(self) -> None:
        self._raw.clear()
        self._built.clear()

    def _entry(self, target: str) -> tuple[list[Fault], list[float], list[float]] | None:
        if target in self._built:
            return self._built[target]
        raw = self._raw.get(target)
        if not raw:
            self._built[target] = None
            return None
        faults = sorted(raw, key=lambda f: f.start)
        starts = [f.start for f in faults]
        prefix_end: list[float] = []
        running = float("-inf")
        for f in faults:
            running = max(running, f.end)
            prefix_end.append(running)
        entry = (faults, starts, prefix_end)
        self._built[target] = entry
        return entry

    def covers(self, target: str, t: float) -> bool:
        """Is any of the target's intervals active at ``t``?"""
        entry = self._built.get(target, False)
        if entry is False:
            entry = self._entry(target)
        if entry is None:
            return False
        _, starts, prefix_end = entry
        i = bisect_right(starts, t)
        return i > 0 and prefix_end[i - 1] > t

    def active(self, target: str, t: float) -> Iterator[Fault]:
        """The target's intervals covering ``t`` (for min-factor scans).

        Walks backwards from the bisect point and stops as soon as the
        prefix max-end shows nothing earlier can still cover ``t``.
        """
        entry = self._entry(target)
        if entry is None:
            return
        faults, starts, prefix_end = entry
        i = bisect_right(starts, t) - 1
        while i >= 0 and prefix_end[i] > t:
            if faults[i].end > t:
                yield faults[i]
            i -= 1

    def first_overlap(self, target: str, start: float, end: float) -> float | None:
        """Earliest onset in [start, end): ``start`` if an interval is
        already active there, else the first onset inside the window."""
        entry = self._entry(target)
        if entry is None:
            return None
        _, starts, prefix_end = entry
        i = bisect_right(starts, start)
        if i > 0 and prefix_end[i - 1] > start:
            return start
        if i < len(starts) and starts[i] < end:
            return starts[i]
        return None

    def clear_from(self, target: str, t: float) -> float:
        """Earliest time >= ``t`` at which none of the target's intervals
        is active.

        While some interval covers ``t``, the one holding the prefix's
        max end covers all of [t, that end), so jump there and bisect
        again.
        """
        entry = self._entry(target)
        if entry is None:
            return t
        _, starts, prefix_end = entry
        i = bisect_right(starts, t)
        while i > 0 and prefix_end[i - 1] > t:
            t = prefix_end[i - 1]
            i = bisect_right(starts, t, i)
        return t


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: ``target`` is affected during [start, start+duration).

    ``kind`` says how (one of :data:`KINDS`): ``link`` — the link is
    down; ``host`` — the host crashed and is rebooting; ``control`` —
    the host's control plane is unreachable (a control-TCP disconnect or
    listener restart: commands fail while data channels already in
    flight keep moving); ``degradation`` — the link runs at ``factor``
    of its bandwidth, in (0, 1], which slows transfers without
    interrupting them.  ``factor`` is 1.0 for every other kind.
    """

    kind: str
    target: str
    start: float
    duration: float
    factor: float = 1.0

    @property
    def end(self) -> float:
        """End of the fault window (exclusive)."""
        return self.start + self.duration

    def active_at(self, t: float) -> bool:
        """True if the fault is in effect at time ``t``."""
        return self.start <= t < self.end


class FaultPlan:
    """The set of scheduled faults for a simulation run.

    ``version`` counts the accepted mutations (every scheduled fault and
    every :meth:`clear`).  A caller that keeps an answer derived from the
    plan, such as which resources of a route have any fault at all,
    stamps it with ``(plan, version)`` and derives it again once the
    stamp is stale.
    """

    def __init__(self) -> None:
        self.version = 0
        self._faults: list[Fault] = []
        # one per-target interval index per kind: every query below is
        # per-resource, so none of them should pay for faults on
        # unrelated targets.
        self._index = {kind: _IntervalIndex() for kind in KINDS}
        # (link_ids, hosts) -> faulted(link_ids, hosts); every mutation clears it
        self._faulted: dict[tuple, tuple] = {}

    # -- construction --------------------------------------------------------

    def _add(self, fault: Fault) -> Fault:
        # NaN fails every comparison, so each test is written to refuse it;
        # an infinite duration is a fault that never ends, and is legal
        if not math.isfinite(fault.start):
            raise ValueError("fault start must be finite")
        if not fault.duration > 0:
            raise ValueError("fault duration must be positive")
        if not 0.0 < fault.factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        self._faults.append(fault)
        self._index[fault.kind].add(fault.target, fault)
        self._faulted.clear()
        self.version += 1
        return fault

    def cut_link(self, link_id: str, at: float, duration: float) -> Fault:
        """Schedule ``link_id`` to be down during [at, at+duration)."""
        return self._add(Fault("link", link_id, at, duration))

    def crash_host(self, host: str, at: float, duration: float) -> Fault:
        """Schedule ``host`` to be down during [at, at+duration)."""
        return self._add(Fault("host", host, at, duration))

    def degrade_link(
        self, link_id: str, at: float, duration: float, factor: float
    ) -> Fault:
        """Schedule ``link_id`` to run at ``factor`` bandwidth during the window."""
        return self._add(Fault("degradation", link_id, at, duration, factor))

    def drop_control(self, host: str, at: float, duration: float) -> Fault:
        """Schedule ``host``'s control plane to be unreachable during the window."""
        return self._add(Fault("control", host, at, duration))

    # -- queries --------------------------------------------------------------

    def link_down(self, link_id: str, t: float) -> bool:
        """Is ``link_id`` down at time ``t``?"""
        return self._index["link"].covers(link_id, t)

    def host_down(self, host: str, t: float) -> bool:
        """Is ``host`` down at time ``t``?"""
        return self._index["host"].covers(host, t)

    def has_link_faults(self, link_id: str) -> bool:
        """Does ``link_id`` have any scheduled down-window at all?"""
        return link_id in self._index["link"]

    def has_host_faults(self, host: str) -> bool:
        """Does ``host`` have any scheduled crash window at all?"""
        return host in self._index["host"]

    def has_degradations(self, link_id: str) -> bool:
        """Does ``link_id`` have any scheduled degradation episode at all?"""
        return link_id in self._index["degradation"]

    def has_control_faults(self, host: str) -> bool:
        """Does ``host`` have any scheduled control-channel drop at all?"""
        return host in self._index["control"]

    def control_down(self, host: str, t: float) -> bool:
        """Is ``host``'s control plane unreachable at time ``t``?"""
        return self._index["control"].covers(host, t)

    def faulted(
        self, link_ids: tuple[str, ...], hosts: tuple[str, ...]
    ) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """(links with outages, hosts with crashes, links with degradations)
        among the listed ones.

        Up-ness checks and fault scans run per control-channel request and
        per transfer, but most routes carry no fault at all (chaos
        campaigns target specific hosts), and resources outside these
        subsets can never change ``link_down``, ``host_down``,
        ``first_interruption`` or ``bandwidth_factor``.  Memoized per
        route until the next mutation; control channels and transfer
        profiles also keep the answer for their route, stamped with
        :attr:`version`.
        """
        key = (link_ids, hosts)
        hit = self._faulted.get(key)
        if hit is None:
            hit = self._faulted[key] = (
                tuple(l for l in link_ids if self.has_link_faults(l)),
                tuple(h for h in hosts if self.has_host_faults(h)),
                tuple(l for l in link_ids if self.has_degradations(l)),
            )
        return hit

    def bandwidth_factor(self, link_ids: Iterable[str], t: float) -> float:
        """Worst active degradation factor over the listed links (1.0 = clean)."""
        index = self._index["degradation"]
        factor = 1.0
        for link_id in link_ids:
            for f in index.active(link_id, t):
                factor = min(factor, f.factor)
        return factor

    def first_interruption(
        self,
        link_ids: Iterable[str],
        hosts: Iterable[str],
        start: float,
        end: float,
    ) -> float | None:
        """Earliest fault onset in [start, end) affecting any listed resource.

        A fault already active at ``start`` counts as an interruption at
        ``start``.  Returns the interruption time, or None when the window
        is clean.  Degradation episodes and control-channel drops do not
        interrupt data flows and are not considered here.
        """
        best: float | None = None
        for idx, targets in ((self._index["link"], link_ids),
                             (self._index["host"], hosts)):
            for target in targets:
                hit = idx.first_overlap(target, start, end)
                if hit is not None and (best is None or hit < best):
                    best = hit
        return best

    def endpoint_disrupted(
        self, hosts: Iterable[str], start: float, end: float
    ) -> bool:
        """Did a host crash *or control-channel drop* hit any listed host
        in [start, end]?

        Unlike :meth:`first_interruption` (which models data flows, where
        control drops don't matter), this is the control-plane question
        the session pool asks: an authenticated control connection does
        not survive either fault class, so a pooled channel whose idle
        window overlaps one must be discarded rather than reused.
        """
        crashes, drops = self._index["host"], self._index["control"]
        for host in hosts:
            if crashes.first_overlap(host, start, end) is not None:
                return True
            if drops.first_overlap(host, start, end) is not None:
                return True
        return False

    def next_clear_time(
        self, link_ids: Iterable[str], hosts: Iterable[str], t: float
    ) -> float:
        """Earliest time >= ``t`` at which every listed resource is up.

        Control-channel drops on the listed hosts count as "not up":
        recovery loops wait them out along with link and host outages.
        Each target's index skips past its own covering windows; outages
        on different targets may overlap or abut, so passes over the
        targets repeat until one moves nothing.
        """
        index = self._index
        targets = [(index["link"], link_id) for link_id in link_ids]
        for host in hosts:
            targets += ((index["host"], host), (index["control"], host))
        while True:
            before = t
            for idx, target in targets:
                t = idx.clear_from(target, t)
            if t == before:
                return t

    def faults(self, kind: str | None = None) -> tuple[Fault, ...]:
        """Every scheduled fault in scheduling order, or only those of ``kind``."""
        if kind is None:
            return tuple(self._faults)
        if kind not in self._index:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of {KINDS}")
        return tuple(f for f in self._faults if f.kind == kind)

    def clear(self) -> None:
        """Remove all scheduled faults."""
        self._faults.clear()
        for idx in self._index.values():
            idx.clear()
        self._faulted.clear()
        self.version += 1


# ---------------------------------------------------------------------------
# Seeded chaos
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos campaign.

    Each ``*_every_s`` is the mean Poisson inter-arrival per target (None
    disables that fault class); the matching ``*_duration_s`` pair is a
    uniform (lo, hi) range.  ``marker_corruption_prob`` is the chance a
    restart marker is truncated or garbled in flight when recovery logic
    routes markers through :meth:`FaultInjector.filter_marker`.
    """

    link_flap_every_s: float | None = None
    link_flap_duration_s: tuple[float, float] = (2.0, 15.0)
    degrade_every_s: float | None = None
    degrade_duration_s: tuple[float, float] = (5.0, 30.0)
    degrade_factor: tuple[float, float] = (0.2, 0.7)
    host_crash_every_s: float | None = None
    host_downtime_s: tuple[float, float] = (10.0, 45.0)
    control_drop_every_s: float | None = None
    control_drop_duration_s: tuple[float, float] = (1.0, 8.0)
    marker_corruption_prob: float = 0.0
    horizon_s: float = 600.0

    def __post_init__(self) -> None:
        for name in ("link_flap_every_s", "degrade_every_s",
                     "host_crash_every_s", "control_drop_every_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.marker_corruption_prob <= 1.0:
            raise ValueError("marker_corruption_prob must be in [0, 1]")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        lo, hi = self.degrade_factor
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError("degrade_factor range must satisfy 0 < lo <= hi <= 1")


# chaos's name for each fault kind: the keys of counts_by_kind() and the
# ``kind`` label of its metric and ``chaos.armed`` event
_CHAOS_LABELS = {
    "link": "link_flap",
    "degradation": "degradation",
    "host": "host_crash",
    "control": "control_drop",
}


class FaultInjector:
    """Seeded, replayable chaos: turns a :class:`ChaosConfig` into faults.

    Each (fault class, target) pair draws from its own named RNG stream,
    so the schedule is independent of target enumeration order and two
    runs from the same world seed inject the identical campaign.
    """

    def __init__(self, world: "World", config: ChaosConfig | None = None) -> None:
        self.world = world
        self.config = config or ChaosConfig()
        self._schedule: list[Fault] = []
        self._marker_rng = world.rng.python("chaos:marker")

    def configure(self, config: ChaosConfig) -> "FaultInjector":
        """Replace the config (call before :meth:`arm`)."""
        self.config = config
        return self

    @property
    def schedule(self) -> tuple[Fault, ...]:
        """Every fault injected so far, in onset order (the plan's own records)."""
        return tuple(self._schedule)

    @property
    def fault_count(self) -> int:
        """Number of faults injected so far."""
        return len(self._schedule)

    def counts_by_kind(self) -> dict[str, int]:
        """Injected fault totals per label: ``link_flap``, ``degradation``,
        ``host_crash`` or ``control_drop``."""
        return dict(Counter(_CHAOS_LABELS[f.kind] for f in self._schedule))

    # -- the campaign ---------------------------------------------------------

    def arm(
        self,
        links: Iterable[str] | None = None,
        hosts: Iterable[str] | None = None,
        start: float | None = None,
        horizon_s: float | None = None,
    ) -> tuple[Fault, ...]:
        """Generate the campaign and install it into ``world.faults``.

        ``links``/``hosts`` default to every link and every non-transit
        host in the topology.  Returns the newly injected faults in onset
        order; they are also appended to :attr:`schedule`.
        """
        cfg = self.config
        t0 = self.world.now if start is None else start
        horizon = cfg.horizon_s if horizon_s is None else horizon_s
        link_ids = sorted(links) if links is not None else sorted(self.world.network.links)
        host_names = (
            sorted(hosts)
            if hosts is not None
            else sorted(
                name for name, h in self.world.network.hosts.items() if not h.transit
            )
        )
        plan = self.world.faults
        new: list[Fault] = []
        for kind, stream, every_s, durations, targets in (
            ("link", "flap", cfg.link_flap_every_s, cfg.link_flap_duration_s, link_ids),
            ("degradation", "degrade", cfg.degrade_every_s, cfg.degrade_duration_s,
             link_ids),
            ("host", "crash", cfg.host_crash_every_s, cfg.host_downtime_s, host_names),
            ("control", "ctrl", cfg.control_drop_every_s, cfg.control_drop_duration_s,
             host_names),
        ):
            if every_s is None:
                continue
            for target in targets:
                # per arrival: the Poisson gap, the duration, then (for
                # degradations only) the factor
                rng = self.world.rng.python(f"chaos:{stream}:{target}")
                t = t0
                while True:
                    t += rng.expovariate(1.0 / every_s)
                    if t >= t0 + horizon:
                        break
                    dur = rng.uniform(*durations)
                    factor = (rng.uniform(*cfg.degrade_factor)
                              if kind == "degradation" else 1.0)
                    new.append(plan._add(Fault(kind, target, t, dur, factor)))

        new.sort(key=lambda f: (f.start, _CHAOS_LABELS[f.kind], f.target))
        self._schedule.extend(new)
        injected = self.world.metrics.counter(
            "chaos_faults_injected_total",
            "Faults placed into the plan by the chaos injector",
            labelnames=("kind",),
        )
        for label, n in Counter(_CHAOS_LABELS[f.kind] for f in new).items():
            injected.inc(n, kind=label)
        self.world.emit(
            "chaos.armed", "chaos campaign installed",
            faults=len(new), horizon_s=horizon,
            kinds=dict(sorted(self.counts_by_kind().items())),
        )
        return tuple(new)

    # -- restart-marker corruption --------------------------------------------

    def filter_marker(self, text: str) -> str:
        """Pass a restart-marker wire string through the chaos channel.

        With probability ``marker_corruption_prob`` the marker comes back
        *truncated* (trailing ranges dropped — still well-formed, claims
        less than was received, which is safe) or *garbled* (unparseable,
        which recovery must detect and discard).  Deterministic: draws
        come from the ``chaos:marker`` stream in call order.
        """
        prob = self.config.marker_corruption_prob
        if prob <= 0.0 or not text:
            return text
        if self._marker_rng.random() >= prob:
            return text
        corruptions = self.world.metrics.counter(
            "chaos_marker_corruptions_total",
            "Restart markers corrupted in flight by the chaos injector",
            labelnames=("mode",),
        )
        if "," in text and self._marker_rng.random() < 0.5:
            corruptions.inc(mode="truncated")
            return text.rsplit(",", 1)[0]
        corruptions.inc(mode="garbled")
        return text[: max(1, len(text) // 2)] + "-?!"
