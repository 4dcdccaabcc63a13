"""FaultInjector: seeded chaos campaigns are replayable and well-formed."""

import hashlib
from collections import Counter

import pytest

from repro.sim.faults import ChaosConfig, FaultInjector
from repro.sim.world import World
from repro.util.units import gbps

FULL = ChaosConfig(
    link_flap_every_s=60.0,
    degrade_every_s=90.0,
    host_crash_every_s=120.0,
    control_drop_every_s=80.0,
    horizon_s=600.0,
)


def _topology(world):
    net = world.network
    net.add_host("a", nic_bps=gbps(10))
    net.add_host("b", nic_bps=gbps(10))
    net.add_router("r")
    net.add_link("a", "r", gbps(10), 0.01)
    net.add_link("r", "b", gbps(10), 0.01)
    return world


def test_same_seed_same_campaign():
    runs = []
    for _ in range(2):
        world = _topology(World(seed=77))
        world.chaos.configure(FULL)
        runs.append(world.chaos.arm())
    assert runs[0] == runs[1]
    assert len(runs[0]) > 0


def test_different_seed_different_campaign():
    a = _topology(World(seed=1))
    b = _topology(World(seed=2))
    for w in (a, b):
        w.chaos.configure(FULL)
    assert a.chaos.arm() != b.chaos.arm()


def test_schedule_independent_of_target_enumeration_order():
    """Per-target rng streams: listing targets differently cannot change
    any target's own fault times."""
    w1 = _topology(World(seed=5))
    w2 = _topology(World(seed=5))
    for w in (w1, w2):
        w.chaos.configure(FULL)
    links = sorted(w1.network.links)
    s1 = w1.chaos.arm(links=links)
    s2 = w2.chaos.arm(links=list(reversed(links)))
    assert s1 == s2


def test_arm_installs_into_the_fault_plan():
    world = _topology(World(seed=9))
    world.chaos.configure(FULL)
    schedule = world.chaos.arm()
    counts = world.chaos.counts_by_kind()
    plan = world.faults
    assert len(plan.faults("link")) == counts.get("link_flap", 0)
    assert len(plan.faults("degradation")) == counts.get("degradation", 0)
    assert len(plan.faults("host")) == counts.get("host_crash", 0)
    assert len(plan.faults("control")) == counts.get("control_drop", 0)
    assert sum(counts.values()) == len(schedule) == world.chaos.fault_count
    # schedule is sorted by onset
    starts = [f.start for f in schedule]
    assert starts == sorted(starts)


#: chaos label per fault kind, as counts_by_kind() and the metrics name them
_LABELS = {"link": "link_flap", "degradation": "degradation",
           "host": "host_crash", "control": "control_drop"}


def test_full_campaign_is_pinned():
    """The FULL campaign at seed 77, hashed over label, target, start,
    duration and (degradations only) factor: any change to a stream
    name, the per-arrival draw order or the onset sort shows here."""
    world = _topology(World(seed=77))
    world.chaos.configure(FULL)
    schedule = world.chaos.arm()
    h = hashlib.sha256()
    for f in schedule:
        fields = [_LABELS[f.kind], f.target, f.start.hex(), f.duration.hex()]
        if f.kind == "degradation":
            fields.append(f.factor.hex())
        h.update(("|".join(fields) + "\n").encode())
    assert len(schedule) == 45
    assert h.hexdigest()[:16] == "c772a6af69c47d68"
    assert world.chaos.counts_by_kind() == Counter(_LABELS[f.kind] for f in schedule)


def test_schedule_holds_the_plans_own_records():
    world = _topology(World(seed=10))
    world.chaos.configure(FULL)
    world.chaos.arm()
    world.chaos.arm(start=600.0)
    planned = {id(f) for f in world.faults.faults()}
    assert world.chaos.schedule
    assert all(id(f) in planned for f in world.chaos.schedule)
    assert len(planned) == world.chaos.fault_count


def test_host_faults_only_hit_non_transit_hosts():
    world = _topology(World(seed=3))
    world.chaos.configure(ChaosConfig(host_crash_every_s=30.0,
                                      control_drop_every_s=30.0,
                                      horizon_s=600.0))
    schedule = world.chaos.arm()
    targets = {f.target for f in schedule}
    assert "r" not in targets
    assert targets <= {"a", "b"}


def test_degradation_factor_within_configured_range():
    world = _topology(World(seed=4))
    world.chaos.configure(ChaosConfig(degrade_every_s=20.0,
                                      degrade_factor=(0.3, 0.5),
                                      horizon_s=600.0))
    schedule = world.chaos.arm()
    assert schedule, "expected at least one episode at this rate"
    assert all(0.3 <= f.factor <= 0.5 for f in schedule)


def test_durations_within_configured_range():
    world = _topology(World(seed=8))
    world.chaos.configure(ChaosConfig(link_flap_every_s=15.0,
                                      link_flap_duration_s=(2.0, 6.0),
                                      horizon_s=600.0))
    schedule = world.chaos.arm()
    assert schedule
    assert all(2.0 <= f.duration <= 6.0 for f in schedule)


def test_metrics_count_injected_faults():
    world = _topology(World(seed=6, trace=True))
    world.chaos.configure(FULL)
    world.chaos.arm()
    counter = world.metrics.counter(
        "chaos_faults_injected_total", labelnames=("kind",))
    for kind, n in world.chaos.counts_by_kind().items():
        assert counter.value(kind=kind) == n
    assert world.log.count("chaos.armed") == 1


def test_injected_fault_counter_is_pinned():
    """Two arms of the FULL campaign at seed 77: per-kind totals, their
    exposition lines and both ``chaos.armed`` events, as first pinned."""
    world = _topology(World(seed=77, trace=True))
    world.chaos.configure(FULL)
    world.chaos.arm()
    world.chaos.arm(start=600.0)
    counter = world.metrics.counter("chaos_faults_injected_total", labelnames=("kind",))
    totals = {"control_drop": 30, "degradation": 26, "link_flap": 20, "host_crash": 14}
    assert {kind: counter.value(kind=kind) for kind in totals} == totals
    assert counter.total() == 90
    assert [l for l in world.metrics.render_prometheus().splitlines()
            if l.startswith("chaos_faults_injected_total")] == [
        'chaos_faults_injected_total{kind="control_drop"} 30',
        'chaos_faults_injected_total{kind="degradation"} 26',
        'chaos_faults_injected_total{kind="host_crash"} 14',
        'chaos_faults_injected_total{kind="link_flap"} 20',
    ]
    armed = [e.fields["kinds"] for e in world.log.select("chaos.armed")]
    assert armed == [{k: n // 2 for k, n in sorted(totals.items())}, dict(sorted(totals.items()))]


def test_default_config_is_quiet():
    world = _topology(World(seed=11))
    assert world.chaos.arm() == ()
    assert world.faults.faults() == ()


def test_filter_marker_identity_without_corruption():
    world = _topology(World(seed=12))
    assert world.chaos.filter_marker("0-100,200-300") == "0-100,200-300"


def test_filter_marker_deterministic_and_detectable():
    texts = []
    for _ in range(2):
        world = _topology(World(seed=13))
        world.chaos.configure(ChaosConfig(marker_corruption_prob=1.0))
        texts.append([world.chaos.filter_marker("0-100,200-300")
                      for _ in range(20)])
    assert texts[0] == texts[1]
    from repro.errors import ProtocolError
    from repro.gridftp.restart import parse_restart_marker
    for out in texts[0]:
        assert out != "0-100,200-300"
        # every corruption is either a parseable *subset* (truncation)
        # or unparseable (garbling) -- never a superset claim
        try:
            marker = parse_restart_marker(out)
        except ProtocolError:
            continue
        assert marker.total_bytes() <= 200


def test_config_validation():
    with pytest.raises(ValueError):
        ChaosConfig(link_flap_every_s=0.0)
    with pytest.raises(ValueError):
        ChaosConfig(marker_corruption_prob=1.5)
    with pytest.raises(ValueError):
        ChaosConfig(horizon_s=-1.0)
    with pytest.raises(ValueError):
        ChaosConfig(degrade_factor=(0.0, 0.5))
