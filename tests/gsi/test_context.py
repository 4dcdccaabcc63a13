"""GSI mutual-authentication contexts, established on the control channel.

AUTH GSSAPI hands the client the server's host chain, which the client
validates against its own trust roots; ADAT hands the server a delegated
proxy, whose chain the server validates against its trust roots.  "If
authentication is not successful, the connection is dropped" (paper
Section II.C).
"""

import pytest

from repro.errors import AuthenticationError
from repro.gridftp.client import GridFTPClient
from repro.gridftp.replies import SECURITY_OK, Reply
from repro.pki.ca import CertificateAuthority
from repro.pki.dn import DistinguishedName as DN
from repro.util.encoding import b64encode_str
from repro.util.units import DAY


def _foreign_ca(world):
    return CertificateAuthority(DN.parse("/O=X/CN=X"), world.clock,
                                world.rng.python("foreign-ca"), key_bits=256)


def _present(site, laptop, credential):
    """Drive AUTH + ADAT on a raw server session; return it and the reply."""
    ss = site.server.open_session(laptop)
    ss.handle("AUTH GSSAPI")
    lines = ss.handle(f"ADAT {b64encode_str(credential.to_pem().encode())}")
    return ss, Reply.parse(lines[-1])


def test_mutual_success(simple_pair):
    world, site, laptop = simple_pair
    session = site.client_for(world, "alice", laptop).connect(site.server)
    alice = site.user_credentials["alice"]
    ss = session.server_session
    assert session.authenticated
    assert ss.peer.identity == alice.subject
    # the acceptor holds a delegated proxy of the initiator, not its EEC
    assert ss.delegated.identity == alice.subject
    assert ss.delegated.subject != alice.subject


def test_acceptor_rejects_untrusted_initiator(simple_pair):
    world, site, laptop = simple_pair
    eve = _foreign_ca(world).issue_credential(DN.parse("/O=X/CN=eve"))
    client = GridFTPClient(world, laptop, credential=eve, trust=site.trust)
    with pytest.raises(AuthenticationError, match="Authentication failed"):
        client.connect(site.server)
    ss, reply = _present(site, laptop, eve)
    assert reply.code == 535
    assert ss.closed and ss.peer is None


def test_initiator_rejects_untrusted_acceptor(simple_pair):
    world, site, laptop = simple_pair
    site.server.credential = _foreign_ca(world).issue_credential(
        DN.parse("/O=X/OU=hosts/CN=server1"))
    client = site.client_for(world, "alice", laptop)
    with pytest.raises(AuthenticationError, match="rejected server certificate"):
        client.connect(site.server)


def test_extra_anchors_rescue_each_direction(simple_pair):
    """A foreign CA's anchor rescues only the side that validates with it."""
    world, site, laptop = simple_pair
    foreign = _foreign_ca(world)
    # acceptor: the server takes a foreign initiator once it trusts that CA
    bob = foreign.issue_credential(DN.parse("/O=X/CN=bob"))
    assert _present(site, laptop, bob)[1].code == 535
    site.server.trust = site.trust.copy()
    site.server.trust.add_anchor(foreign.certificate)
    ss, reply = _present(site, laptop, bob)
    assert reply.code == SECURITY_OK.code
    assert ss.peer.identity == bob.subject
    # initiator: the client takes a foreign server once it trusts that CA
    site.server.credential = foreign.issue_credential(
        DN.parse("/O=X/OU=hosts/CN=server1"))
    client = site.client_for(world, "alice", laptop)
    with pytest.raises(AuthenticationError, match="rejected server certificate"):
        client.connect(site.server)
    client.trust = site.trust.copy()
    client.trust.add_anchor(foreign.certificate)
    assert client.connect(site.server).authenticated


def test_expired_credential_fails(simple_pair):
    world, site, laptop = simple_pair
    brief = site.ca.issue_credential(DN.parse("/O=Lab/OU=people/CN=brief"),
                                     lifetime=DAY)
    world.clock.advance(2 * DAY)
    ss, reply = _present(site, laptop, brief)
    assert reply.code == 535
    assert "expired" in reply.text
    assert ss.closed and ss.peer is None
