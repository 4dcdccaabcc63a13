"""The authenticated control-channel pool (GridFTP session reuse).

The pool is a wall-clock optimization with a hard determinism contract:
a world that reuses pooled channels must reach bit-identical virtual
outcomes — clock, mapped accounts, transferred bytes — to a world that
performs every handshake from scratch.  These tests pin the reuse path,
every invalidation rule (expiry, chaos faults, trust changes, breaker
trips, an expired host credential, a revoked authorization), the
charge-only options fast path, and the twin-world equality itself.
"""

import pytest

from repro.errors import AuthenticationError, ProtocolError, SecurityError
from repro.gridftp.client import ControlChannelPool
from repro.gridftp.dcau import DCAUMode
from repro.gridftp.transfer import TransferOptions
from repro.pki.ca import CertificateAuthority
from repro.pki.dn import DistinguishedName
from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.util import memo
from repro.util.units import HOUR, gbps
from repro.xio.drivers import Protection
from tests.conftest import make_conventional_site

# a handful of tests assert pool *occupancy*, which the escape hatch
# legitimately zeroes; everything else (twin-world equality, expiry,
# fast-path state) must hold in both modes and runs unguarded
requires_cache = pytest.mark.skipif(
    not memo.enabled(),
    reason="REPRO_NO_SESSION_CACHE set: pool occupancy is legitimately 0",
)


def _build(seed=9):
    world = World(seed=seed)
    net = world.network
    net.add_host("server1", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("server1", "laptop", gbps(1), 0.01, loss=0.0)
    site = make_conventional_site(world, "Lab", "server1")
    site.add_user(world, "alice")
    client = site.client_for(world, "alice", "laptop")
    return world, site, client


# -- reuse ---------------------------------------------------------------------


@requires_cache
def test_pooled_session_is_reused():
    world, site, client = _build()
    pool = ControlChannelPool.for_world(world)
    s1 = client.connect(site.server, pooled=True)
    assert s1.logged_in_as == "alice"
    s1.release()
    assert pool.stats()["pooled"] == 1
    s2 = client.connect(site.server, pooled=True)
    assert s2 is s1  # the same parked session comes back
    assert s2.logged_in_as == "alice"
    assert pool.stats()["reuses"] == 1


def test_reuse_advances_the_clock_like_a_fresh_login():
    # twin worlds, identical command sequences; only pooling differs
    def scenario(pooled: bool) -> tuple[float, str]:
        world, site, client = _build()
        s = client.connect(site.server, pooled=pooled)
        s.release()  # pooled: parks; unpooled: closes (no wire traffic either way)
        s = client.connect(site.server, pooled=pooled)
        mapped = s.logged_in_as
        return world.now, mapped

    fresh_now, fresh_user = scenario(pooled=False)
    pooled_now, pooled_user = scenario(pooled=True)
    assert pooled_now == pytest.approx(fresh_now)
    assert pooled_user == fresh_user


def test_unpooled_release_closes_the_channel():
    world, site, client = _build()
    s = client.connect(site.server, pooled=False)
    s.release()
    assert s.channel.closed
    assert ControlChannelPool.for_world(world).stats()["pooled"] == 0


# -- invalidation --------------------------------------------------------------


def test_expired_proxy_cannot_resume_from_the_pool():
    world, site, client = _build()
    s = client.connect(site.server, pooled=True)
    s.release()
    pool = ControlChannelPool.for_world(world)
    if memo.enabled():
        assert pool.stats()["pooled"] == 1
    # jump past the proxy's lifetime: the pooled entry must not replay,
    # and the real handshake must reject the expired credential exactly
    # as a fresh world would
    world.clock.advance(30 * 24 * 3600.0)
    with pytest.raises(SecurityError):
        client.connect(site.server, pooled=True)


def test_host_crash_while_idle_invalidates_the_entry():
    world, site, client = _build()
    s = client.connect(site.server, pooled=True)
    s.release()
    released_at = world.now
    world.faults.crash_host("server1", released_at + 1.0, 5.0)
    world.clock.advance(60.0)
    pool = ControlChannelPool.for_world(world)
    before = pool.stats()["reuses"]
    s2 = client.connect(site.server, pooled=True)
    # a crash inside the idle window means a full handshake, not a replay
    assert pool.stats()["reuses"] == before
    assert s2.logged_in_as == "alice"


def test_control_drop_while_idle_invalidates_the_entry():
    world, site, client = _build()
    s = client.connect(site.server, pooled=True)
    s.release()
    world.faults.drop_control("server1", world.now + 1.0, 2.0)
    world.clock.advance(30.0)
    pool = ControlChannelPool.for_world(world)
    before = pool.stats()["reuses"]
    s2 = client.connect(site.server, pooled=True)
    assert pool.stats()["reuses"] == before
    assert s2.logged_in_as == "alice"


def test_trust_store_change_invalidates_the_entry():
    world, site, client = _build()
    s = client.connect(site.server, pooled=True)
    s.release()
    other_ca = CertificateAuthority(
        DistinguishedName.make(("O", "Other"), ("CN", "Other CA")),
        world.clock,
        world.rng.python("other-ca"),
    )
    site.trust.add_anchor(other_ca.certificate)  # bumps trust.version
    pool = ControlChannelPool.for_world(world)
    before = pool.stats()["reuses"]
    s2 = client.connect(site.server, pooled=True)
    assert pool.stats()["reuses"] == before
    assert s2.logged_in_as == "alice"


def _pooled_twins(monkeypatch, scenario):
    """``scenario()``'s outcome with the pool on, then under the escape hatch."""
    monkeypatch.delenv("REPRO_NO_SESSION_CACHE", raising=False)
    pooled = scenario()
    monkeypatch.setenv("REPRO_NO_SESSION_CACHE", "1")
    return pooled, scenario()


def _reconnect(world, site, client):
    """(mapped account or error type, clock) of one pooled connect."""
    try:
        mapped = client.connect(site.server, pooled=True).logged_in_as
    except SecurityError as exc:
        mapped = type(exc).__name__
    return mapped, world.now


def test_expired_host_credential_fails_reuse_like_a_fresh_login(monkeypatch):
    def scenario():
        world, site, client = _build()
        site.server.credential = site.ca.issue_credential(
            DistinguishedName.make(("O", "Lab"), ("OU", "hosts"), ("CN", "server1")),
            lifetime=HOUR,
        )
        client.connect(site.server, pooled=True).release()
        world.clock.advance(2 * HOUR)
        return _reconnect(world, site, client)

    pooled, fresh = _pooled_twins(monkeypatch, scenario)
    # the client rejects the AUTH chain after the connect and AUTH round
    # trip; the pool must not hand back the session instead
    assert fresh[0] == AuthenticationError.__name__
    assert pooled == fresh


def test_revoked_gridmap_entry_fails_reuse_like_a_fresh_login(monkeypatch):
    def scenario():
        world, site, client = _build()
        client.connect(site.server, pooled=True).release()
        site.gridmap.remove(site.user_credentials["alice"].subject)
        world.clock.advance(60.0)
        return _reconnect(world, site, client)

    pooled, fresh = _pooled_twins(monkeypatch, scenario)
    assert fresh[0] == AuthenticationError.__name__
    assert pooled == fresh


@requires_cache
def test_invalidate_host_drops_entries_for_that_host():
    world, site, client = _build()
    s = client.connect(site.server, pooled=True)
    s.release()
    pool = ControlChannelPool.for_world(world)
    assert pool.invalidate_host("server1") == 1
    assert pool.stats()["pooled"] == 0
    assert pool.stats()["invalidations"] == 1


def test_escape_hatch_disables_pooling(monkeypatch):
    monkeypatch.setenv("REPRO_NO_SESSION_CACHE", "1")
    world, site, client = _build()  # the world reads the variable
    assert not memo.enabled()
    s = client.connect(site.server, pooled=True)
    s.release()
    assert s.channel.closed
    assert ControlChannelPool.for_world(world).stats()["pooled"] == 0


# -- the apply_options charge-only fast path -----------------------------------


def test_fastpath_applies_identical_server_state_and_charge():
    def scenario(pooled: bool):
        world, site, client = _build()
        s = client.connect(site.server, pooled=pooled)
        s.release()  # pooled: parks; unpooled: closes (no wire traffic)
        s = client.connect(site.server, pooled=pooled)
        s.apply_options(TransferOptions(
            parallelism=4,
            protection=Protection.SAFE,
            dcau=DCAUMode.NONE,
            tcp_window_bytes=1 << 20,
        ))
        ss = s.server_session
        return (
            world.now, ss.type_, ss.mode, ss.parallelism, ss.protection,
            ss.dcau_mode, ss.dcau_subject, ss.tcp_window,
        )

    fresh = scenario(pooled=False)
    pooled = scenario(pooled=True)
    # identical virtual charge *and* identical resulting server state: the
    # charge-only fast path must be observationally equal to a wire replay
    assert pooled[1:] == fresh[1:]
    assert pooled[0] == pytest.approx(fresh[0])


def test_fastpath_malformed_options_error_like_the_wire():
    world, site, client = _build()
    s = client.connect(site.server, pooled=True)
    s.release()
    s = client.connect(site.server, pooled=True)
    # "DCAU S" with no subject is a 501 on the wire; the fast path must
    # fall through to the real pipeline and surface the same error
    with pytest.raises(ProtocolError):
        s.apply_options(TransferOptions(dcau=DCAUMode.SUBJECT, dcau_subject=None))


def test_fastpath_resets_stale_state_between_leases():
    world, site, client = _build()
    s = client.connect(site.server, pooled=True)
    s.apply_options(TransferOptions(parallelism=8, tcp_window_bytes=1 << 22))
    s.release()
    s = client.connect(site.server, pooled=True)
    # the new option set omits SBUF entirely; the reused session must not
    # leak the previous lease's tcp_window through reset_for_reuse
    s.apply_options(TransferOptions(parallelism=2))
    ss = s.server_session
    assert ss.parallelism == 2
    assert ss.tcp_window is None


# -- transfers over a pooled session -------------------------------------------


def test_get_over_reused_session_moves_identical_bytes():
    payload = b"x" * 65536

    def scenario(pooled: bool) -> tuple[float, list[int]]:
        world, site, client = _build()
        site.storage.write_file(
            "/home/alice/a.dat", LiteralData(payload),
            uid=site.accounts.get("alice").uid)
        moved = []
        for _ in range(2):
            s = client.connect(site.server, pooled=pooled)
            result = s.get("/home/alice/a.dat", "/tmp/a.dat")
            moved.append(result.nbytes)
            s.release()
        return world.now, moved

    fresh_now, fresh_moved = scenario(pooled=False)
    pooled_now, pooled_moved = scenario(pooled=True)
    assert pooled_now == pytest.approx(fresh_now)
    assert pooled_moved == fresh_moved == [len(payload)] * 2


# -- the setup-time keygen optimizations ---------------------------------------


def test_ca_key_pregeneration_is_bit_identical():
    def issue(pregenerate: int):
        world = World(seed=77)
        ca = CertificateAuthority(
            DistinguishedName.make(("O", "T"), ("CN", "CA")),
            world.clock,
            world.rng.python("ca"),
        )
        if pregenerate:
            ca.pregenerate(pregenerate)
        creds = [
            ca.issue_credential(
                DistinguishedName.make(("O", "T"), ("CN", f"u{i}")))
            for i in range(3)
        ]
        return [
            (c.certificate.serial, c.certificate.public_key.n)
            for c in creds
        ]

    assert issue(pregenerate=0) == issue(pregenerate=5)
    assert issue(pregenerate=0) == issue(pregenerate=2)  # fewer than are issued
