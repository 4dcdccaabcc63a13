"""The DTP half of a GridFTP server.

Figure 2 splits a server into protocol interpreters and "the data
transfer process (DTP), which handles access to the actual data and its
movement via the data channel protocol".  A server's DTP nodes are
``GridFTPServer.dtp_hosts`` (its own host, or a striped server's stripe
hosts); its storage side is the session's RETR intent and
``make_sink``, both opened as the logged-in user's uid.
"""

import pytest

from repro.auth.accounts import AccountDatabase
from repro.errors import NetworkError, PermissionDeniedError
from repro.gridftp.replies import Reply
from repro.gridftp.striped import StripedGridFTPServer
from repro.gsi.authz import GridmapCallout
from repro.gsi.gridmap import Gridmap
from repro.pki.ca import CertificateAuthority
from repro.pki.dn import DistinguishedName as DN
from repro.pki.validation import TrustStore
from repro.storage.data import LiteralData
from repro.storage.posix import PosixStorage


@pytest.fixture
def dtp(simple_pair):
    """A logged-in session on a plain server, over one file of alice's."""
    world, site, laptop = simple_pair
    uid = site.accounts.get("alice").uid
    site.storage.write_file("/home/alice/f.bin", LiteralData(b"payload"), uid=uid)
    session = site.client_for(world, "alice", laptop).connect(site.server)
    return site, session.server_session


def last_code(replies):
    return Reply.parse(replies[-1]).code


def test_requires_existing_host(world):
    world.network.add_host("h")
    ca = CertificateAuthority(DN.parse("/CN=CA"), world.clock,
                              world.rng.python("x"), key_bits=256)
    with pytest.raises(NetworkError):
        StripedGridFTPServer(
            world, "h", ["h", "ghost"], ca.issue_credential(DN.parse("/CN=h")),
            TrustStore(), GridmapCallout(Gridmap()), AccountDatabase(),
            PosixStorage(world.clock),
        )


def test_open_source(dtp):
    site, ss = dtp
    # a plain server is its own (single) DTP
    assert site.server.dtp_hosts == (site.host,)
    assert last_code(ss.handle("RETR /home/alice/f.bin")) == 150
    intent = ss.take_intent()
    assert intent.direction == "send"
    assert intent.data.read_all() == b"payload"


def test_open_sink_round_trip(dtp):
    site, ss = dtp
    assert last_code(ss.handle("STOR /home/alice/out.bin")) == 150
    sink = ss.make_sink(ss.take_intent(), 3)
    sink.write_range(0, b"abc")
    sink.close(complete=True)
    # what the sink committed, the source half reads back
    assert last_code(ss.handle("RETR /home/alice/out.bin")) == 150
    assert ss.take_intent().data.read_all() == b"abc"


def test_permissions_enforced_through_dtp(dtp):
    site, ss = dtp
    site.storage.write_file("/home/alice/secret", LiteralData(b"s"), uid=0)
    site.storage.chmod("/home/alice/secret", 0o600, uid=0)
    assert last_code(ss.handle("RETR /home/alice/secret")) == 550
    # the sink is opened as alice too: root's directory refuses her
    site.storage.makedirs("/srv", 0)
    assert last_code(ss.handle("STOR /srv/out.bin")) == 150
    with pytest.raises(PermissionDeniedError):
        ss.make_sink(ss.take_intent(), 1)
