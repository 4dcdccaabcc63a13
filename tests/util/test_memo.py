"""The session layer's bounded LRU memo and the switch that reaches every cache.

The first half pins :class:`~repro.util.memo.Memo`'s mechanics: LRU
order, the bound and its eviction count, the counters, the validity
predicate, and ``REPRO_NO_SESSION_CACHE`` taking effect when a
:class:`~repro.sim.world.World` is built.  The second half runs under
``REPRO_NO_SESSION_CACHE=1`` and checks that the switch reaches each
cache: the keygen memo, the credential and certificate parse memos, a
server's DCSC blob memo, and the proxy a login delegates.
"""

import random

import pytest

from repro.gridftp.dcsc import decode_dcsc_blob, encode_dcsc_blob
from repro.pki import rsa
from repro.pki.certificate import Certificate
from repro.pki.credential import Credential
from repro.sim.world import World
from repro.util import opcount
from repro.util.encoding import pem_decode
from repro.util.memo import MEMOS, Memo, enabled
from repro.util.units import HOUR, gbps
from tests.conftest import make_conventional_site


# -- Memo ----------------------------------------------------------------------


def test_a_hit_moves_the_entry_to_the_back(cache_on):
    memo = Memo("t", 2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1  # "b" is now least recently used
    memo.put("c", 3)
    assert memo.get("b") is None
    assert memo.get("a") == 1
    assert memo.get("c") == 3


def test_put_into_a_full_memo_drops_the_front(cache_on):
    memo = Memo("t", 3)
    for i in range(5):
        memo.put(i, str(i))
    assert len(memo) == 3
    assert memo.evictions == 2
    assert [memo.get(i) for i in range(5)] == [None, None, "2", "3", "4"]
    memo.put(4, "four")  # an existing key replaces in place: no eviction
    assert memo.evictions == 2
    assert memo.get(4) == "four"


def test_counters_and_stats(cache_on):
    memo = Memo("t", 1)
    assert memo.get("k") is None
    memo.put("k", "v")
    assert memo.get("k") == "v"
    assert memo.get("k") == "v"
    memo.put("j", "w")
    assert memo.stats() == {"hits": 2, "misses": 1, "evictions": 1, "live": 1}


def test_an_invalid_entry_is_dropped_and_counts_as_a_miss(cache_on):
    memo = Memo("t", 4)
    memo.put("k", (0.0, 10.0))
    assert memo.get("k", lambda w: w[0] <= 5.0 <= w[1]) == (0.0, 10.0)
    assert memo.get("k", lambda w: w[0] <= 11.0 <= w[1]) is None
    assert len(memo) == 0
    assert (memo.hits, memo.misses) == (1, 1)


def test_every_memo_is_listed_while_it_lives(cache_on):
    memo = Memo("t", 1)
    assert memo in MEMOS
    assert {m.name for m in MEMOS} >= {
        "rsa.keygen", "credential.pem", "certificate.der",
    }


def test_a_switched_off_memo_misses_and_stores_nothing(cache_off):
    memo = Memo("t", 4)
    memo.put("k", "v")
    assert len(memo) == 0
    assert memo.get("k") is None
    assert memo.misses == 1


def test_no_session_cache_env_is_read_when_a_world_is_built(cache_on, monkeypatch):
    memo = Memo("t", 4)
    monkeypatch.setenv("REPRO_NO_SESSION_CACHE", "1")
    assert enabled()  # no world built since the variable changed
    memo.put("k", "v")
    World(seed=1)
    assert not enabled()
    assert memo.get("k") is None
    monkeypatch.delenv("REPRO_NO_SESSION_CACHE")
    assert not enabled()
    World(seed=1)
    assert enabled()


# -- the switch reaches every cache ---------------------------------------------


def test_switched_off_keygen_runs_every_generation(cache_off):
    before = opcount.snapshot()
    first = rsa.generate_keypair(512, random.Random(20120521))
    second = rsa.generate_keypair(512, random.Random(20120521))
    ops = opcount.since(before)
    assert ops.get("rsa.keygen.full") == 2
    assert ops.get("rsa.keygen.memo", 0) == 0
    assert (first.n, first.d) == (second.n, second.d)


def _site():
    world = World(seed=5)
    world.network.add_host("server1", nic_bps=gbps(10))
    world.network.add_host("laptop", nic_bps=gbps(1))
    world.network.add_link("server1", "laptop", gbps(1), 0.01, loss=0.0)
    site = make_conventional_site(world, "Lab", "server1")
    site.add_user(world, "alice")
    return world, site


def test_switched_off_parse_memos_return_new_equal_objects(cache_off):
    world, site = _site()
    cred = site.user_credentials["alice"]
    parsed = Credential.from_pem(cred.to_pem())
    assert parsed == cred and parsed is not cred
    _, der = pem_decode(cred.certificate.to_pem())
    first, second = Certificate.from_der(der), Certificate.from_der(der)
    assert first == second and first is not second


def test_switched_off_dcsc_memo_parses_every_blob(cache_off):
    world, site = _site()
    blob = encode_dcsc_blob(site.user_credentials["alice"])
    first = decode_dcsc_blob(blob, world.now, site.server.dcsc_memo)
    second = decode_dcsc_blob(blob, world.now, site.server.dcsc_memo)
    assert first == second and first is not second
    assert len(site.server.dcsc_memo) == 0


def test_switched_off_login_delegates_a_fresh_proxy(cache_off):
    world, site = _site()
    client = site.client_for(world, "alice", "laptop")
    client.credential = site.user_credentials["alice"]  # a 1-year EEC
    first = client.connect(site.server).server_session.delegated.certificate
    world.clock.advance(5 * HOUR - world.now)
    second = client.connect(site.server).server_session.delegated.certificate
    assert first.not_after == pytest.approx(12 * HOUR, abs=1.0)
    # a fresh delegation starts now and runs its full 12 h: the
    # user's credential does not clip it
    assert second.not_before == pytest.approx(5 * HOUR, abs=1.0)
    assert second.not_after == second.not_before + 12 * HOUR
