"""The client PI and high-level operations."""

import pytest

from repro.errors import AuthenticationError, ProtocolError, TransferError
from repro.gridftp.client import GridFTPClient, GridFTPUrl, globus_url_copy
from repro.gridftp.restart import ByteRangeSet
from repro.gridftp.transfer import TransferOptions
from repro.pki.validation import TrustStore
from repro.storage.data import LiteralData
from repro.util.units import MB


# -- URL parsing -------------------------------------------------------------


def test_url_gsiftp_with_port():
    u = GridFTPUrl.parse("gsiftp://dtn1:2811/data/f.dat")
    assert (u.scheme, u.host, u.port, u.path) == ("gsiftp", "dtn1", 2811, "/data/f.dat")


def test_url_default_port():
    assert GridFTPUrl.parse("gsiftp://dtn1/f").port == 2811


def test_url_file_forms():
    assert GridFTPUrl.parse("file:///x/y").path == "/x/y"
    assert GridFTPUrl.parse("file:/x/y").path == "/x/y"  # paper's spelling


def test_url_rejects_unknown_scheme():
    with pytest.raises(ProtocolError):
        GridFTPUrl.parse("sftp://host/f")
    with pytest.raises(ProtocolError):
        GridFTPUrl.parse("garbage")


def test_url_str_round_trip():
    u = GridFTPUrl.parse("gsiftp://h:2812/p/q")
    assert str(u) == "gsiftp://h:2812/p/q"


# -- login -----------------------------------------------------------------------


def test_login_maps_user(simple_pair):
    world, site, laptop = simple_pair
    client = site.client_for(world, "alice", laptop)
    session = client.connect(site.server)
    assert session.logged_in_as == "alice"
    assert session.authenticated


def test_login_without_credential_fails(simple_pair):
    world, site, laptop = simple_pair
    client = GridFTPClient(world, laptop, credential=None, trust=site.trust)
    with pytest.raises(AuthenticationError):
        client.connect(site.server)


def test_client_rejects_untrusted_server(simple_pair):
    """Mutual auth: the client must validate the server's host cert."""
    world, site, laptop = simple_pair
    client = GridFTPClient(
        world, laptop,
        credential=site.proxy_for(world, "alice"),
        trust=TrustStore(),  # empty: trusts nobody
    )
    with pytest.raises(AuthenticationError, match="rejected server certificate"):
        client.connect(site.server)


def test_empty_auth_chain_fails_the_login(simple_pair, monkeypatch):
    """An AUTH reply that carries no certificate is refused, not an IndexError."""
    from repro.gridftp import server

    world, site, laptop = simple_pair
    monkeypatch.setitem(server._HANDLERS, "AUTH", lambda session, arg: ["334 ADAT="])
    client = site.client_for(world, "alice", laptop)
    with pytest.raises(AuthenticationError, match="no certificate"):
        client.connect(site.server)


def test_login_as_specific_requested_user(simple_pair):
    world, site, laptop = simple_pair
    site.gridmap.add(site.user_credentials["alice"].subject, "shared")
    site.accounts.add_user("shared")
    site.storage.makedirs("/home/shared", 0)
    client = site.client_for(world, "alice", laptop)
    session = client.connect(site.server, username="shared")
    assert session.logged_in_as == "shared"


# -- get/put ------------------------------------------------------------------------


@pytest.fixture
def loaded(simple_pair):
    world, site, laptop = simple_pair
    uid = site.accounts.get("alice").uid
    site.storage.write_file("/home/alice/d.bin", LiteralData(b"ab" * 5000), uid=uid)
    client = site.client_for(world, "alice", laptop)
    return world, site, client, client.connect(site.server)


def test_get_round_trip(loaded):
    world, site, client, session = loaded
    res = session.get("/home/alice/d.bin", "/tmp/d.bin")
    assert res.nbytes == 10000
    assert res.verified
    assert client.local_storage.open_read("/tmp/d.bin", 0).read_all() == b"ab" * 5000


def test_put_round_trip(loaded):
    world, site, client, session = loaded
    client.local_storage.write_file("/tmp/up.bin", b"XYZ" * 1000)
    res = session.put("/tmp/up.bin", "/home/alice/up.bin")
    assert res.verified
    uid = site.accounts.get("alice").uid
    assert site.storage.open_read("/home/alice/up.bin", uid).read_all() == b"XYZ" * 1000


def test_get_applies_options_to_server(loaded):
    world, site, client, session = loaded
    opts = TransferOptions(parallelism=8)
    session.get("/home/alice/d.bin", "/tmp/d.bin", opts)
    assert session.server_session.parallelism == 8
    assert session.server_session.mode == "E"


def test_get_restart_moves_only_missing(loaded):
    world, site, client, session = loaded
    have = ByteRangeSet([(0, 6000)])
    sink = client.local_storage.open_write("/tmp/d.bin", 0, 10000)
    sink.write_range(0, (b"ab" * 5000)[:6000])
    sink.close(complete=False)
    res = session.get("/home/alice/d.bin", "/tmp/d.bin", restart=have)
    assert res.nbytes == 4000  # only the complement moved
    assert client.local_storage.open_read("/tmp/d.bin", 0).read_all() == b"ab" * 5000


def test_get_without_local_storage(simple_pair):
    world, site, laptop = simple_pair
    client = GridFTPClient(
        world, laptop, credential=site.proxy_for(world, "alice"),
        trust=site.trust, local_storage=None,
    )
    session = client.connect(site.server)
    with pytest.raises(TransferError):
        session.get("/x", "/y")


def test_namespace_helpers(loaded):
    world, site, client, session = loaded
    assert session.pwd() == "/home/alice"
    session.mkdir("newdir")
    session.cwd("newdir")
    assert session.pwd() == "/home/alice/newdir"
    assert session.size("/home/alice/d.bin") == 10000
    assert "d.bin" in session.list_dir("/home/alice")
    session.rename("/home/alice/d.bin", "/home/alice/e.bin")
    session.delete("/home/alice/e.bin")
    assert "e.bin" not in session.list_dir("/home/alice")


def test_features_and_supports(loaded):
    world, site, client, session = loaded
    assert session.supports("DCSC")
    assert not session.supports("NOPE")


def test_checksum_matches_local(loaded):
    world, site, client, session = loaded
    import hashlib

    assert session.checksum("/home/alice/d.bin") == hashlib.sha256(b"ab" * 5000).hexdigest()


def test_get_many_pipelining_saves_round_trips(loaded):
    world, site, client, session = loaded
    uid = site.accounts.get("alice").uid
    paths = []
    for i in range(20):
        site.storage.write_file(f"/home/alice/s{i}.dat", LiteralData(b"x" * 1000), uid=uid)
        paths.append((f"/home/alice/s{i}.dat", f"/tmp/s{i}.dat"))
    t0 = world.now
    session.get_many(paths, TransferOptions(pipelining=False))
    serial = world.now - t0
    t1 = world.now
    session.get_many(paths, TransferOptions(pipelining=True))
    pipelined = world.now - t1
    assert pipelined < serial
    # data is intact either way
    assert client.local_storage.open_read("/tmp/s7.dat", 0).read_all() == b"x" * 1000


def test_get_many_concurrency_faster_when_flow_limited(loaded):
    world, site, client, session = loaded
    uid = site.accounts.get("alice").uid
    paths = []
    for i in range(8):
        site.storage.write_file(f"/home/alice/c{i}.dat", LiteralData(b"y" * (2 * MB)), uid=uid)
        paths.append((f"/home/alice/c{i}.dat", f"/tmp/c{i}.dat"))
    t0 = world.now
    session.get_many(paths, TransferOptions(pipelining=True, concurrency=1))
    serial = world.now - t0
    t1 = world.now
    session.get_many(paths, TransferOptions(pipelining=True, concurrency=4))
    concurrent = world.now - t1
    assert concurrent < serial


def test_quit(loaded):
    world, site, client, session = loaded
    session.quit()
    assert session.channel.closed


# -- globus-url-copy -------------------------------------------------------------------


def test_globus_url_copy_get(loaded):
    world, site, client, session = loaded
    res = globus_url_copy(
        world, "gsiftp://server1:2811/home/alice/d.bin", "file:///tmp/copy.bin", client
    )
    assert res.verified
    assert client.local_storage.open_read("/tmp/copy.bin", 0).read_all() == b"ab" * 5000


def test_globus_url_copy_put(loaded):
    world, site, client, session = loaded
    client.local_storage.write_file("/tmp/src.bin", b"q" * 100)
    res = globus_url_copy(
        world, "file:///tmp/src.bin", "gsiftp://server1:2811/home/alice/dst.bin", client
    )
    assert res.verified


def test_globus_url_copy_rejects_file_to_file(loaded):
    world, site, client, session = loaded
    with pytest.raises(ProtocolError):
        globus_url_copy(world, "file:///a", "file:///b", client)
