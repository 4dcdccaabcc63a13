"""Topology, routing, path statistics."""

import pytest

from repro.errors import LinkDownError, NetworkError, NoRouteError
from repro.sim.world import World
from repro.util.units import gbps, mbps


@pytest.fixture
def world():
    return World(seed=0)


def test_add_host_and_lookup(world):
    h = world.network.add_host("a", nic_bps=gbps(1))
    assert world.network.host("a") is h
    with pytest.raises(NetworkError):
        world.network.host("missing")


def test_duplicate_host_rejected(world):
    world.network.add_host("a")
    with pytest.raises(NetworkError):
        world.network.add_host("a")


def test_link_requires_existing_hosts(world):
    world.network.add_host("a")
    with pytest.raises(NetworkError):
        world.network.add_link("a", "ghost", gbps(1), 0.01)


def test_self_link_rejected(world):
    world.network.add_host("a")
    with pytest.raises(NetworkError):
        world.network.add_link("a", "a", gbps(1), 0.01)


def test_link_validation():
    from repro.net.topology import Link

    with pytest.raises(ValueError):
        Link("l", "a", "b", bandwidth_bps=0, latency_s=0.01)
    with pytest.raises(ValueError):
        Link("l", "a", "b", bandwidth_bps=1e9, latency_s=-1)
    with pytest.raises(ValueError):
        Link("l", "a", "b", bandwidth_bps=1e9, latency_s=0.0, loss=1.0)


def test_path_stats_direct_link(world):
    net = world.network
    net.add_host("a", nic_bps=gbps(10))
    net.add_host("b", nic_bps=gbps(1))
    net.add_link("a", "b", gbps(10), 0.025, loss=1e-4)
    p = net.path("a", "b")
    assert p.rtt_s == pytest.approx(0.05)
    assert p.bottleneck_bps == gbps(1)  # b's NIC caps it
    assert p.loss == pytest.approx(1e-4)
    assert p.hop_count == 1


def test_multihop_path_through_router(world):
    net = world.network
    net.add_host("a")
    net.add_host("b")
    net.add_router("core")
    net.add_link("a", "core", gbps(10), 0.01, loss=1e-5)
    net.add_link("core", "b", mbps(100), 0.02, loss=1e-5)
    p = net.path("a", "b")
    assert p.hop_count == 2
    assert p.rtt_s == pytest.approx(0.06)
    assert p.bottleneck_bps == mbps(100)
    # losses compose: 1-(1-p1)(1-p2)
    assert p.loss == pytest.approx(1 - (1 - 1e-5) ** 2)


def test_end_hosts_do_not_forward(world):
    net = world.network
    net.add_host("a")
    net.add_host("b")
    net.add_host("middle")  # NOT a router
    net.add_link("a", "middle", gbps(1), 0.001)
    net.add_link("middle", "b", gbps(1), 0.001)
    with pytest.raises(NoRouteError):
        net.path("a", "b")


def test_routing_prefers_lower_latency(world):
    net = world.network
    net.add_host("a")
    net.add_host("b")
    net.add_router("fast")
    net.add_router("slow")
    net.add_link("a", "fast", gbps(1), 0.005)
    net.add_link("fast", "b", gbps(1), 0.005)
    net.add_link("a", "slow", gbps(10), 0.05)
    net.add_link("slow", "b", gbps(10), 0.05)
    p = net.path("a", "b")
    assert p.rtt_s == pytest.approx(0.02)


def test_loopback_path(world):
    net = world.network
    net.add_host("a", nic_bps=gbps(10))
    p = net.path("a", "a")
    assert p.hop_count == 0
    assert p.loss == 0.0
    assert p.rtt_s > 0
    assert p.bottleneck_bps <= gbps(10)


def test_no_route_raises(world):
    net = world.network
    net.add_host("a")
    net.add_host("island")
    with pytest.raises(NoRouteError):
        net.path("a", "island")


def test_equal_latency_tie_takes_the_pinned_route(world):
    # Two equal routes a-r1-b and a-r2-b.  The router searches from both
    # ends and meets at b's first neighbour the forward search has seen,
    # so a->b goes through r2 (b was linked to r2 first) and b->a through
    # r1 (a was linked to r1 first).
    net = world.network
    net.add_host("a")
    net.add_host("b")
    net.add_router("r1")
    net.add_router("r2")
    for x, y in (("a", "r1"), ("a", "r2"), ("r2", "b"), ("r1", "b")):
        net.add_link(x, y, gbps(1), 0.01)
    assert net.path("a", "b").hosts == ("a", "r2", "b")
    assert net.path("a", "b").link_ids == ("link2:a--r2", "link3:r2--b")
    assert net.path("b", "a").hosts == ("b", "r1", "a")


def test_second_link_between_a_pair_replaces_the_first_for_routing(world):
    net = world.network
    net.add_host("a")
    net.add_host("b")
    first = net.add_link("a", "b", gbps(10), 0.01)
    second = net.add_link("a", "b", gbps(1), 0.05)
    p = net.path("a", "b")
    assert p.link_ids == (second.link_id,)
    assert p.rtt_s == pytest.approx(0.1)
    assert set(net.links) == {first.link_id, second.link_id}


def test_path_up_and_fault_check(world):
    net = world.network
    net.add_host("a")
    net.add_host("b")
    link = net.add_link("a", "b", gbps(1), 0.01)
    p = net.path("a", "b")
    assert net.check_path_up(p) is None
    world.faults.cut_link(link.link_id, at=0.0, duration=10.0)
    with pytest.raises(LinkDownError):
        net.check_path_up(p)
    world.advance(10.0)
    assert net.check_path_up(p) is None


def test_host_fault_downs_path(world):
    net = world.network
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", gbps(1), 0.01)
    p = net.path("a", "b")
    world.faults.crash_host("b", at=0.0, duration=5.0)
    with pytest.raises(LinkDownError):
        net.check_path_up(p)


def test_ephemeral_ports_unique(world):
    ports = {world.network.ephemeral_port() for _ in range(100)}
    assert len(ports) == 100


def test_link_other_end(world):
    net = world.network
    net.add_host("a")
    net.add_host("b")
    link = net.add_link("a", "b", gbps(1), 0.01)
    assert link.other_end("a") == "b"
    assert link.other_end("b") == "a"
    with pytest.raises(ValueError):
        link.other_end("c")
