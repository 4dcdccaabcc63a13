"""The DCSC blob format, its Section V.A rules, and a server's parse memo."""

import pytest

from repro.errors import ProtocolError
from repro.gridftp.dcsc import decode_dcsc_blob, encode_dcsc_blob
from repro.pki.ca import CertificateAuthority, self_signed_credential
from repro.pki.credential import Credential
from repro.pki.dn import DistinguishedName as DN
from repro.pki.proxy import create_proxy
from repro.sim.clock import Clock
from repro.sim.random import RngFactory
from repro.util.encoding import is_printable_ascii
from repro.util.memo import Memo
from repro.util.units import DAY, HOUR


@pytest.fixture
def env():
    clock = Clock()
    rng = RngFactory(22).python("dcsc")
    ca = CertificateAuthority(DN.parse("/O=A/CN=CA-A"), clock, rng, key_bits=256)
    user = ca.issue_credential(DN.parse("/O=A/CN=alice"), lifetime=DAY)
    proxy = create_proxy(user, clock, rng)
    return clock, rng, ca, user, proxy


def test_blob_is_printable_ascii(env):
    clock, rng, ca, user, proxy = env
    blob = encode_dcsc_blob(proxy)
    assert is_printable_ascii(blob)
    assert " " not in blob  # must survive as one command argument


def test_round_trip(env):
    clock, rng, ca, user, proxy = env
    ctx = decode_dcsc_blob(encode_dcsc_blob(proxy), clock.now)
    assert ctx.credential.chain == proxy.chain
    assert ctx.credential.key == proxy.key


def test_anchors_are_self_signed_blob_certs(env):
    """The CA root in the blob becomes the extra validation anchor."""
    clock, rng, ca, user, proxy = env
    ctx = decode_dcsc_blob(encode_dcsc_blob(proxy), clock.now)
    assert ca.certificate in ctx.anchors
    assert proxy.certificate in ctx.intermediates
    assert proxy.certificate not in ctx.anchors


def test_self_signed_context(env):
    clock, rng, *_ = env
    ss = self_signed_credential(DN.parse("/CN=random-ctx"), clock, rng)
    ctx = decode_dcsc_blob(encode_dcsc_blob(ss), clock.now)
    assert ctx.anchors == (ss.certificate,)
    assert ctx.intermediates == ()


def test_non_self_contained_blob_rejected(env):
    """Leaf not self-signed and chain truncated: Section V.A violation."""
    clock, rng, ca, user, proxy = env
    truncated = Credential(chain=proxy.chain[:1], key=proxy.key)
    with pytest.raises(ProtocolError, match="not .*verifiable from the blob|self-signed"):
        decode_dcsc_blob(encode_dcsc_blob(truncated), clock.now)


def test_garbage_blob_rejected(env):
    clock, *_ = env
    with pytest.raises(ProtocolError):
        decode_dcsc_blob("!!!not-base64!!!", clock.now)
    with pytest.raises(ProtocolError):
        decode_dcsc_blob("aGVsbG8gd29ybGQ=", clock.now)  # b64 of "hello world"


# -- a server parses each distinct blob once --------------------------------


def test_memo_hit_still_answers_501_once_the_leaf_expires(simple_pair, cache_on):
    """The parse is reused; the Section V.A check still runs at ``now``."""
    world, site, laptop = simple_pair
    ss = site.client_for(world, "alice", laptop).connect(site.server).server_session
    blob = encode_dcsc_blob(site.ca.issue_credential(DN.parse("/O=Lab/CN=ctx"), lifetime=HOUR))
    assert ss.handle(f"DCSC P {blob}")[0].startswith("200")
    world.advance(2 * HOUR)
    reply = ss.handle(f"DCSC P {blob}")
    assert site.server.dcsc_memo.stats()["hits"] == 1
    with pytest.raises(ProtocolError) as fresh:
        decode_dcsc_blob(blob, world.now)  # no memo: parsed from scratch
    assert reply == [f"501 {fresh.value}"]
    assert "not verifiable from the blob alone" in reply[0]


def test_a_blob_one_character_off_is_a_miss(env, cache_on):
    clock, rng, ca, user, proxy = env
    memo = Memo("dcsc.blob", 4)
    blob = encode_dcsc_blob(user)
    first = decode_dcsc_blob(blob, clock.now, memo)
    i = len(blob) // 2
    tweaked = blob[:i] + ("B" if blob[i] == "A" else "A") + blob[i + 1:]
    with pytest.raises(ProtocolError):
        decode_dcsc_blob(tweaked, clock.now, memo)
    assert decode_dcsc_blob(blob, clock.now, memo) is first
    assert memo.stats() == {"hits": 1, "misses": 2, "evictions": 0, "live": 1}


def test_servers_do_not_share_parses(two_domain_world, cache_on):
    d = two_domain_world
    blob = encode_dcsc_blob(d.site_a.user_credentials["alice"])
    contexts = []
    for site, user in ((d.site_a, "alice"), (d.site_b, "asmith")):
        ss = site.client_for(d.world, user, d.laptop).connect(site.server).server_session
        assert ss.handle(f"DCSC P {blob}")[0].startswith("200")
        assert site.server.dcsc_memo.stats() == {
            "hits": 0, "misses": 1, "evictions": 0, "live": 1,
        }
        contexts.append(ss.dcsc)
    assert contexts[0] == contexts[1] and contexts[0] is not contexts[1]


# -- the client's DCSC command ------------------------------------------------


def test_client_sends_d_in_either_case_as_the_default_and_any_blob_as_p(simple_pair):
    world, site, laptop = simple_pair
    session = site.client_for(world, "alice", laptop).connect(site.server)
    sent = []
    send = session.command
    session.command = lambda line: sent.append(line) or send(line)
    blob = encode_dcsc_blob(site.user_credentials["alice"])
    for default in ("D", "d"):
        session.dcsc(blob)
        assert session.server_session.dcsc is not None
        session.dcsc(default)
        assert session.server_session.dcsc is None
    # base64 of "test": a blob that starts with "d", refused as no credential
    with pytest.raises(ProtocolError, match="malformed DCSC blob"):
        session.dcsc("dGVzdA==")
    assert sent == [f"DCSC P {blob}", "DCSC D"] * 2 + ["DCSC P dGVzdA=="]
