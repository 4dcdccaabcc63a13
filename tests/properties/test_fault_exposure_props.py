"""Differential property: stamped fault exposure changes no outcome.

A control channel and a cached transfer profile keep which of their
route's links and hosts, and which of the channel's two endpoints, have
any scheduled fault, stamped with the fault plan's ``version``; on a
route with no fault they skip the per-call up-checks.  This test runs a
random interleaving of fault mutations (at arbitrary virtual times),
``clear()``, a new plan in place of the old one, a new shorter route,
clock advances, requests on a long-lived and on pooled control
channels, and transfers on a cached profile, twice: once with
the stamps, and once with the reference below, which asks the plan on
every call as every command and transfer once did.  A pooled checkout
skips its route's up-check when the parked channel's stamp says the
route is unchanged and clean; the reference always checks.  Each step
must end the same way in both runs: the same exception type and
message, or the same result, at the same virtual instant.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ControlChannelDownError, NetworkError, ReproError
from repro.gridftp.transfer import _TransferProfile
from repro.net.channel import ControlChannel
from repro.sim.faults import FaultPlan
from repro.sim.world import World
from repro.storage.data import SyntheticData
from repro.util import memo
from repro.util.units import MB, gbps
from tests.conftest import make_conventional_site


def _reference_check_open(self):
    """Every request asks the plan about the whole route and both ends."""
    if self.closed or self._session is None:
        raise NetworkError("channel is closed")
    self.network.check_path_up(self.path)
    faults = self.network.world.faults
    now = self.network.world.now
    for host in (self.address[0], self.client_host):
        if faults.control_down(host, now):
            raise ControlChannelDownError(
                f"control channel to {host} is down at t={now:.3f}"
            )


def _reference_route_clear(self, stats):
    """Every pooled checkout checks its route."""
    return False


def _reference_exposure(self, world):
    """Every transfer checks each flow's path and asks for the route's faults."""
    for f in self.flows:
        world.network.check_path_up(f.path)
    return world.faults.faulted(self.links, self.hosts)


LINKS = ("laptop-r1", "r1-server1", "laptop-server1")
HOSTS = ("laptop", "r1", "server1")

_time = st.floats(-5.0, 10.0, allow_nan=False)
_duration = st.floats(0.05, 60.0, allow_nan=False)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("request")),
        st.tuples(st.just("pooled")),
        st.tuples(st.just("get")),
        st.tuples(st.just("drop_control"), st.sampled_from(("server1", "laptop")), _time,
                  _duration),
        st.tuples(st.just("cut_link"), st.sampled_from(LINKS), _time, _duration),
        st.tuples(st.just("crash_host"), st.sampled_from(HOSTS), _time, _duration),
        st.tuples(st.just("degrade_link"), st.sampled_from(LINKS), _time, _duration,
                  st.floats(0.1, 1.0)),
        st.tuples(st.just("advance"), st.floats(0.0, 10.0, allow_nan=False)),
        st.tuples(st.just("reconnect")),
        st.tuples(st.just("clear")),
        st.tuples(st.just("reroute")),
        st.tuples(st.just("replan")),
    ),
    min_size=1,
    max_size=25,
)


def _run(ops) -> list[tuple]:
    """One world, one interleaving: how each step ended, and when."""
    world = World(seed=3)
    net = world.network
    net.add_host("server1", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_host("r1", transit=True)
    net.add_link("laptop", "r1", gbps(1), 0.004, link_id="laptop-r1")
    net.add_link("r1", "server1", gbps(10), 0.006, link_id="r1-server1")
    site = make_conventional_site(world, "Lab", "server1")
    site.add_user(world, "alice")
    site.storage.write_file("/home/alice/big.dat", SyntheticData(seed=1, length=2048 * MB),
                            uid=site.accounts.get("alice").uid)
    client = site.client_for(world, "alice", "laptop")
    session = None
    outcomes: list[tuple] = []
    for op in ops:
        kind = op[0]
        faults = world.faults
        try:
            if kind in ("cut_link", "crash_host", "drop_control"):
                _, target, at, duration = op
                getattr(faults, kind)(target, world.now + at, duration)
                result = faults.version
            elif kind == "degrade_link":
                _, target, at, duration, factor = op
                faults.degrade_link(target, world.now + at, duration, factor)
                result = faults.version
            elif kind == "clear":
                faults.clear()
                result = faults.version
            elif kind == "reroute":
                # a direct link is shorter: new channels and pooled ones
                # checked out from here on take it, a live one keeps its route
                if "laptop-server1" not in net.links:
                    net.add_link("laptop", "server1", gbps(1), 0.003, link_id="laptop-server1")
                result = net.path("laptop", "server1").link_ids
            elif kind == "replan":
                world.faults = FaultPlan()
                result = None
            elif kind == "advance":
                world.clock.advance(op[1])
                result = None
            elif kind == "pooled":
                pooled = client.connect(site.server, pooled=True)
                result = pooled.pwd()
                pooled.release()
            elif kind == "reconnect" or session is None:
                session = None
                session = client.connect(site.server)
                result = session.logged_in_as
            elif kind == "request":
                result = session.pwd()
            else:
                result = session.get("/home/alice/big.dat", "/tmp/out.dat").nbytes
        except ReproError as exc:
            outcomes.append((kind, type(exc).__name__, str(exc), world.now))
        else:
            outcomes.append((kind, result, world.now))
    return outcomes


@pytest.mark.parametrize("cached", [True, False], ids=["caches-on", "caches-off"])
@settings(max_examples=60, deadline=None)
@given(ops=_ops)
# a control drop lands on a channel whose exposure was stamped clean
@example(ops=[("reconnect",), ("request",), ("drop_control", "server1", 0.0, 5.0),
              ("request",), ("pooled",)])
# clear() must bring back the skip, and a new outage must end it again
@example(ops=[("cut_link", "r1-server1", 1.0, 5.0), ("reconnect",), ("advance", 2.0),
              ("get",), ("clear",), ("get",), ("crash_host", "r1", -1.0, 3.0),
              ("request",), ("pooled",)])
# a new plan at the old plan's version must not pass for the old one
@example(ops=[("drop_control", "server1", 30.0, 1.0), ("request",), ("get",), ("replan",),
              ("cut_link", "r1-server1", -1.0, 9.0), ("request",), ("get",)])
# a pooled channel parked on the old route is checked out onto the new
# one, whose link goes down during the replayed login
@example(ops=[("cut_link", "laptop-server1", 0.1158, 9.0), ("pooled",), ("reroute",),
              ("pooled",), ("request",)])
# a fault scheduled while the channel is parked, down at checkout
@example(ops=[("pooled",), ("cut_link", "r1-server1", 0.0, 5.0), ("pooled",),
              ("advance", 6.0), ("pooled",)])
# an outage scheduled before the channel was parked begins while it sits
@example(ops=[("cut_link", "r1-server1", 1.0, 5.0), ("pooled",), ("advance", 2.0),
              ("pooled",)])
# a topology change while the channel is parked: the new route is down
# at checkout though the parked route's stamp is current and clean
@example(ops=[("cut_link", "laptop-server1", 0.0, 9.0), ("pooled",), ("reroute",),
              ("pooled",), ("advance", 10.0), ("pooled",)])
# a link that goes down after RETR's check but before the data moves
@example(ops=[("cut_link", "laptop-r1", 0.12, 5.0), ("reconnect",), ("get",)])
# the cached profile too must tell a new plan from the old one
@example(ops=[("drop_control", "laptop", 5000.0, 1.0), ("reconnect",), ("get",),
              ("replan",), ("cut_link", "laptop-r1", 10.0, 5.0), ("get",)])
# a degradation stamped on the cached profile slows the next transfer,
# and an outage that never ends cuts the one after
@example(ops=[("get",), ("degrade_link", "laptop-r1", -5.0, 60.0, 0.25), ("get",),
              ("clear",), ("get",), ("crash_host", "server1", 4.0, math.inf), ("get",),
              ("request",)])
def test_stamped_checks_match_the_per_call_reference(cached, ops):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memo, "_enabled", cached)
        if cached:
            mp.delenv("REPRO_NO_SESSION_CACHE", raising=False)
        else:
            mp.setenv("REPRO_NO_SESSION_CACHE", "1")
        stamped = _run(ops)
        mp.setattr(ControlChannel, "_check_open", _reference_check_open)
        mp.setattr(ControlChannel, "route_clear", _reference_route_clear)
        mp.setattr(_TransferProfile, "exposure", _reference_exposure)
        reference = _run(ops)
    assert stamped == reference
