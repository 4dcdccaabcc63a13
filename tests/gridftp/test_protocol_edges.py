"""Protocol edge cases across the client/server pair."""

import pytest

from repro.errors import ProtocolError
from repro.gridftp.dcau import DCAUMode
from repro.gridftp.restart import ByteRangeSet
from repro.gridftp.transfer import TransferOptions
from repro.storage.data import LiteralData
from repro.util.units import MB, HOUR


@pytest.fixture
def loaded(simple_pair):
    world, site, laptop = simple_pair
    uid = site.accounts.get("alice").uid
    site.storage.write_file("/home/alice/d.bin", LiteralData(b"ee" * 50_000), uid=uid)
    client = site.client_for(world, "alice", laptop)
    return world, site, client, client.connect(site.server)


def test_esto_append_at_offset(loaded):
    """ESTO A <offset> <path>: adjusted store."""
    world, site, client, session = loaded
    ss = session.server_session
    assert ss.handle("ESTO A 0 /home/alice/up.bin")[0].startswith("150")
    intent = ss.take_intent()
    sink = ss.make_sink(intent, 4)
    sink.write_range(0, b"abcd")
    sink.close(complete=True)
    uid = site.accounts.get("alice").uid
    assert site.storage.open_read("/home/alice/up.bin", uid).read_all() == b"abcd"
    assert ss.handle("ESTO Z 0 /f")[0].startswith("501")


def test_esto_resume_survives_a_later_stor(loaded):
    """Each recv intent keeps its own resume rule: a STOR queued behind an
    ESTO must not make the ESTO's sink start empty."""
    world, site, client, session = loaded
    ss = session.server_session
    ss.handle("ESTO A 0 /home/alice/part.bin")
    first = ss.make_sink(ss.take_intent(), 8)
    first.write_range(0, b"abcd")
    first.close(complete=False)  # a 4-byte partial persists
    assert ss.handle("ESTO A 4 /home/alice/part.bin")[0].startswith("150")
    assert ss.handle("STOR /home/alice/other.bin")[0].startswith("150")
    sink = ss.make_sink(ss.take_intent(), 8)
    assert sink.received.total_bytes() == 4


def test_udt_transport_end_to_end(loaded):
    world, site, client, session = loaded
    res = session.get("/home/alice/d.bin", "/tmp/d.bin",
                      TransferOptions(transport="udt"))
    assert res.verified
    assert client.local_storage.open_read("/tmp/d.bin", 0).read_all() == b"ee" * 50_000


def test_dcau_subject_mode_end_to_end(loaded):
    world, site, client, session = loaded
    subject = str(client.credential.identity)
    opts = TransferOptions(dcau=DCAUMode.SUBJECT, dcau_subject=subject)
    res = session.get("/home/alice/d.bin", "/tmp/d2.bin", opts)
    assert session.server_session.dcau_mode is DCAUMode.SUBJECT
    assert res.verified
    # the wrong expected subject is refused
    from repro.errors import DCAUError

    bad = TransferOptions(dcau=DCAUMode.SUBJECT, dcau_subject="/O=Lab/CN=other")
    with pytest.raises(DCAUError):
        session.get("/home/alice/d.bin", "/tmp/d3.bin", bad)


def test_dcau_none_skips_auth_time(loaded):
    world, site, client, session = loaded
    opts_auth = TransferOptions(dcau=DCAUMode.SELF)
    opts_none = TransferOptions(dcau=DCAUMode.NONE)
    session.apply_options(opts_auth)
    t0 = world.now
    session.get("/home/alice/d.bin", "/tmp/a.bin", opts_auth)
    with_auth = world.now - t0
    t0 = world.now
    session.get("/home/alice/d.bin", "/tmp/b.bin", opts_none)
    without = world.now - t0
    assert without < with_auth


def test_expired_dcsc_blob_rejected(loaded):
    """A blob whose certificate already expired must be refused."""
    world, site, client, session = loaded
    from repro.gridftp.dcsc import encode_dcsc_blob
    from repro.pki.ca import self_signed_credential
    from repro.pki.dn import DistinguishedName as DN

    short = self_signed_credential(DN.parse("/CN=brief"), world.clock,
                                   world.rng.python("b"), lifetime=1.0)
    blob = encode_dcsc_blob(short)
    world.advance(2 * HOUR)
    # the self-signed leaf is its own anchor, but validity is checked at
    # data-channel time; installing is allowed, *using* it fails.
    reply = session.server_session.handle(f"DCSC P {blob}")
    # self-signed leaf passes the self-containedness check (no chain walk
    # needed) — acceptance here mirrors the real server; DCAU later fails.
    assert reply[0].startswith("200")
    from repro.errors import DCAUError
    from repro.gridftp.dcau import authenticate_data_channel

    sec = session.server_session.data_channel_security()
    with pytest.raises(DCAUError):
        authenticate_data_channel(sec, sec, world.now)


def test_multiple_concurrent_sessions_one_server(loaded):
    world, site, client, session = loaded
    second = site.client_for(world, "alice", "laptop").connect(site.server)
    assert second.server_session is not session.server_session
    # both sessions work independently
    r1 = session.get("/home/alice/d.bin", "/tmp/s1.bin")
    r2 = second.get("/home/alice/d.bin", "/tmp/s2.bin")
    assert r1.verified and r2.verified
    assert len(site.server.sessions) >= 2


def test_relative_paths_follow_cwd(loaded):
    world, site, client, session = loaded
    session.mkdir("sub")
    session.cwd("sub")
    ss = session.server_session
    assert ss.handle("STOR rel.bin")[0].startswith("150")
    intent = ss.take_intent()
    assert intent.path == "/home/alice/sub/rel.bin"


def test_rest_without_transfer_is_cleared_by_abor(loaded):
    world, site, client, session = loaded
    session.rest(ByteRangeSet([(0, 10)]))
    assert session.server_session.restart is not None
    session.command("ABOR")
    assert session.server_session.restart is None


def test_command_after_quit_is_421(loaded):
    world, site, client, session = loaded
    ss = session.server_session
    ss.handle("QUIT")
    assert ss.handle("PWD")[0].startswith("421")


def test_get_nonexistent_file_raises_550(loaded):
    world, site, client, session = loaded
    with pytest.raises(ProtocolError) as exc:
        session.get("/home/alice/ghost.bin", "/tmp/x.bin")
    assert exc.value.code == 550


def test_mode_e_channel_reuse_cheaper_than_fresh(loaded):
    """Cached data channels: the second file skips setup cost."""
    world, site, client, session = loaded
    uid = site.accounts.get("alice").uid
    site.storage.write_file("/home/alice/a.bin", LiteralData(b"q" * MB), uid=uid)
    site.storage.write_file("/home/alice/b.bin", LiteralData(b"q" * MB), uid=uid)
    paths = [("/home/alice/a.bin", "/tmp/ra.bin"), ("/home/alice/b.bin", "/tmp/rb.bin")]
    t0 = world.now
    session.get_many(paths, TransferOptions(pipelining=True))
    batched = world.now - t0
    t0 = world.now
    session.get("/home/alice/a.bin", "/tmp/fa.bin")
    session.get("/home/alice/b.bin", "/tmp/fb.bin")
    individual = world.now - t0
    assert batched < individual


def test_pwd_reply_without_quotes_is_a_protocol_error(loaded, monkeypatch):
    from repro.gridftp import server as gridftp_server

    world, site, client, session = loaded
    monkeypatch.setitem(gridftp_server._HANDLERS, "PWD", lambda ss, arg: ["257 /home/alice"])
    with pytest.raises(ProtocolError, match="unparseable reply to PWD: '257 /home/alice'"):
        session.pwd()


def test_spas_line_with_bad_port_is_a_protocol_error(loaded, monkeypatch):
    from repro.gridftp import server as gridftp_server

    world, site, client, session = loaded
    lines = ["229-Entering Striped Passive Mode", " dtn:50001", " dtn:port", "229 End"]
    monkeypatch.setitem(gridftp_server._HANDLERS, "SPAS", lambda ss, arg: lines)
    with pytest.raises(ProtocolError, match="unparseable reply to SPAS: ' dtn:port'"):
        session.striped_passive()
