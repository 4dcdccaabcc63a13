"""Differential property: session caches change no virtual outcome.

The control-channel pool, the DCAU cache and the pki memos are
wall-clock optimizations.  This test drives *twin worlds* — identical
seed, identical randomized op sequence — once with every cache enabled
and once under ``REPRO_NO_SESSION_CACHE=1``, and requires bit-identical
virtual outcomes: the clock, the mapped accounts, every byte a transfer
moved, and the sequence of errors.  Any divergence means a cache
replayed state the full pipeline would not have produced.

Time advances up to eight hours per step, so a sequence crosses the
12 h proxy lifetime, and the client holds either the site's 12 h proxy,
whose expiry clips every delegation, or the user's 1-year certificate,
which does not.
"""

import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.util.units import HOUR, gbps
from tests.conftest import make_conventional_site

# op alphabet: (connect pooled / connect fresh), transfer over the live
# session, advance virtual time, release the session
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("connect"), st.booleans()),
        st.tuples(st.just("get"), st.integers(1, 4)),
        st.tuples(st.just("advance"), st.floats(0.5, 8 * HOUR,
                                                allow_nan=False,
                                                allow_infinity=False)),
        st.tuples(st.just("release")),
    ),
    min_size=1,
    max_size=12,
)


def _run(seed: int, long_lived: bool, ops, *, cached: bool):
    """One world, one op sequence; returns its observable outcome."""
    saved = os.environ.get("REPRO_NO_SESSION_CACHE")
    if cached:
        os.environ.pop("REPRO_NO_SESSION_CACHE", None)
    else:
        os.environ["REPRO_NO_SESSION_CACHE"] = "1"
    try:
        world = World(seed=seed)
        net = world.network
        net.add_host("server1", nic_bps=gbps(10))
        net.add_host("laptop", nic_bps=gbps(1))
        net.add_link("server1", "laptop", gbps(1), 0.01, loss=0.0)
        site = make_conventional_site(world, "Lab", "server1")
        site.add_user(world, "alice")
        uid = site.accounts.get("alice").uid
        for i in range(4):
            site.storage.write_file(
                f"/home/alice/f{i}.dat", LiteralData(b"d" * (4096 * (i + 1))),
                uid=uid)
        client = site.client_for(world, "alice", "laptop")
        if long_lived:
            client.credential = site.user_credentials["alice"]

        session = None
        mapped: list[str] = []
        moved: list[int] = []
        errors: list[tuple[int, str]] = []
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "connect":
                if session is not None:
                    session.release()
                    session = None
                try:
                    session = client.connect(site.server, pooled=op[1])
                except ReproError as exc:
                    errors.append((step, type(exc).__name__))
                else:
                    mapped.append(session.logged_in_as)
            elif kind == "get" and session is not None:
                n = op[1]
                try:
                    result = session.get(f"/home/alice/f{n - 1}.dat", "/tmp/out.dat")
                except ReproError as exc:
                    errors.append((step, type(exc).__name__))
                else:
                    moved.append(result.nbytes)
            elif kind == "advance":
                world.clock.advance(op[1])
            elif kind == "release" and session is not None:
                session.release()
                session = None
        return world.now, tuple(mapped), tuple(moved), tuple(errors)
    finally:
        os.environ.pop("REPRO_NO_SESSION_CACHE", None)
        if saved is not None:
            os.environ["REPRO_NO_SESSION_CACHE"] = saved


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.booleans(), _ops)
# a 1-year credential logs in again at 5 h: a fresh login delegates a
# proxy to 17 h, so a pool that handed back the 12 h proxy fails at 13 h
@example(1, True, [("connect", True), ("advance", 5 * HOUR), ("connect", True),
                   ("advance", 8 * HOUR), ("get", 1)])
def test_cached_and_uncached_worlds_agree(seed, long_lived, ops):
    """Cache-on and cache-off twins reach bit-identical outcomes."""
    assert (_run(seed, long_lived, ops, cached=True)
            == _run(seed, long_lived, ops, cached=False))
