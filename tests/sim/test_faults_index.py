"""The indexed fault lookup answers exactly like a linear scan would."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults import FaultPlan

_TARGETS = ["link-1", "link-2", "link-3", "host-a", "host-b"]


@st.composite
def _plan_and_queries(draw, grid=False):
    """A random plan plus query times.  ``grid=True`` puts onsets,
    durations and query times on whole seconds, so overlapping and
    exactly abutting windows are common."""
    plan = FaultPlan()
    n = draw(st.integers(0, 25))
    for _ in range(n):
        kind = draw(st.sampled_from(["cut", "crash", "degrade", "control"]))
        target = draw(st.sampled_from(_TARGETS))
        if grid:
            at = float(draw(st.integers(0, 60)))
            dur = float(draw(st.integers(1, 12)))
        else:
            at = draw(st.floats(0.0, 100.0, allow_nan=False))
            dur = draw(st.floats(0.1, 40.0, allow_nan=False))
        if kind == "cut":
            plan.cut_link(target, at=at, duration=dur)
        elif kind == "crash":
            plan.crash_host(target, at=at, duration=dur)
        elif kind == "degrade":
            plan.degrade_link(target, at=at, duration=dur,
                              factor=draw(st.floats(0.1, 1.0)))
        else:
            plan.drop_control(target, at=at, duration=dur)
    if grid:
        times = draw(st.lists(st.integers(0, 80).map(float), min_size=1, max_size=8))
    else:
        times = draw(st.lists(st.floats(0.0, 160.0, allow_nan=False),
                              min_size=1, max_size=8))
    return plan, times


def _active(plan, kind, target, t):
    return any(f.target == target and f.active_at(t) for f in plan.faults(kind))


@given(pq=_plan_and_queries())
@settings(max_examples=150)
def test_point_queries_match_linear_scan(pq):
    plan, times = pq
    for t in times:
        for target in _TARGETS:
            assert plan.link_down(target, t) == _active(plan, "link", target, t)
            assert plan.host_down(target, t) == _active(plan, "host", target, t)
            assert plan.control_down(target, t) == _active(plan, "control", target, t)


@given(pq=_plan_and_queries())
@settings(max_examples=150)
def test_bandwidth_factor_matches_linear_scan(pq):
    plan, times = pq
    links = [t for t in _TARGETS if t.startswith("link")]
    for t in times:
        expected = 1.0
        for f in plan.faults("degradation"):
            if f.target in links and f.active_at(t):
                expected = min(expected, f.factor)
        assert plan.bandwidth_factor(links, t) == expected


@given(pq=_plan_and_queries(), span=st.floats(0.1, 60.0))
@settings(max_examples=150)
def test_first_interruption_matches_linear_scan(pq, span):
    plan, times = pq
    links = [t for t in _TARGETS if t.startswith("link")]
    hosts = [t for t in _TARGETS if t.startswith("host")]
    for start in times:
        end = start + span
        candidates = [
            max(f.start, start)
            for f in plan.faults("link")
            if f.target in links and f.start < end and f.end > start
        ] + [
            max(f.start, start)
            for f in plan.faults("host")
            if f.target in hosts and f.start < end and f.end > start
        ]
        expected = min(candidates) if candidates else None
        assert plan.first_interruption(links, hosts, start, end) == expected


@given(pq=_plan_and_queries())
@settings(max_examples=100)
def test_next_clear_time_is_actually_clear(pq):
    plan, times = pq
    links = [t for t in _TARGETS if t.startswith("link")]
    hosts = [t for t in _TARGETS if t.startswith("host")]
    for t in times:
        clear = plan.next_clear_time(links, hosts, t)
        assert clear >= t
        assert not any(plan.link_down(l, clear) for l in links)
        assert not any(plan.host_down(h, clear) for h in hosts)
        assert not any(plan.control_down(h, clear) for h in hosts)


def _rescan_next_clear_time(plan, links, hosts, t):
    """Reference: copy every window of the listed resources, then rescan
    the copy until no window covers ``t``.  Each jump lands on the end of
    a window covering the current ``t``, so every instant skipped is
    covered and the fixed point is the *least* clear time."""
    windows = [
        (f.start, f.end)
        for f in plan.faults()
        if (f.kind == "link" and f.target in links)
        or (f.kind in ("host", "control") and f.target in hosts)
    ]
    changed = True
    while changed:
        changed = False
        for start, end in windows:
            if start <= t < end:
                t = end
                changed = True
    return t


_SUBSET = st.lists(st.sampled_from(_TARGETS), unique=True)


@given(pq=st.one_of(_plan_and_queries(), _plan_and_queries(grid=True)),
       links=_SUBSET, hosts=_SUBSET)
@settings(max_examples=300)
def test_next_clear_time_is_the_least_clear_time(pq, links, hosts):
    plan, times = pq
    for t in times:
        assert plan.next_clear_time(links, hosts, t) == _rescan_next_clear_time(
            plan, links, hosts, t
        )


def test_next_clear_time_walks_abutting_and_overlapping_windows():
    plan = FaultPlan()
    plan.cut_link("wan", at=10.0, duration=10.0)       # [10, 20)
    plan.cut_link("wan", at=12.0, duration=3.0)        # inside the first
    plan.crash_host("dtn", at=20.0, duration=5.0)      # abuts: [20, 25)
    plan.drop_control("dtn", at=24.0, duration=4.0)    # overlaps: [24, 28)
    plan.cut_link("wan", at=28.0, duration=2.0)        # abuts again: [28, 30)
    plan.cut_link("wan", at=31.0, duration=5.0)        # gap at [30, 31)
    plan.drop_control("other", at=30.0, duration=9.0)  # unlisted host
    plan.degrade_link("wan", at=30.0, duration=9.0, factor=0.1)  # not an outage
    assert plan.next_clear_time(["wan"], ["dtn"], 11.0) == 30.0
    assert plan.next_clear_time(["wan"], ["dtn"], 30.0) == 30.0
    assert plan.next_clear_time(["wan"], ["dtn"], 30.5) == 30.5
    assert plan.next_clear_time(["wan"], ["dtn"], 31.0) == 36.0
    assert plan.next_clear_time(["wan"], [], 11.0) == 20.0
    assert plan.next_clear_time([], ["dtn"], 20.0) == 28.0
    assert plan.next_clear_time([], ["dtn"], 9.0) == 9.0


def test_index_tracks_interleaved_mutation():
    """Queries between mutations must see the fresh schedule (lazy rebuild)."""
    plan = FaultPlan()
    plan.cut_link("wan", at=10.0, duration=5.0)
    assert plan.link_down("wan", 12.0)
    assert not plan.link_down("wan", 20.0)
    plan.cut_link("wan", at=18.0, duration=4.0)  # index for "wan" is dirty now
    assert plan.link_down("wan", 20.0)
    assert plan.first_interruption(["wan"], [], 0.0, 30.0) == 10.0
    plan.clear()
    assert not plan.link_down("wan", 12.0)
    assert plan.first_interruption(["wan"], [], 0.0, 30.0) is None
