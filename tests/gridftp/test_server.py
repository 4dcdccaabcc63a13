"""The server PI state machine, driven command by command."""

import pytest

from repro.gridftp.replies import Reply
from repro.storage.data import LiteralData
from tests.conftest import make_conventional_site


@pytest.fixture
def session(simple_pair):
    """A raw (already GSI-authenticated + logged-in) server session."""
    world, site, laptop = simple_pair
    site.storage.write_file(
        "/home/alice/data.bin", LiteralData(b"0123456789" * 100),
        uid=site.accounts.get("alice").uid,
    )
    client = site.client_for(world, "alice", laptop)
    cs = client.connect(site.server)
    return world, site, cs.server_session, cs


def last_code(replies):
    return Reply.parse(replies[-1]).code


def test_unauthenticated_commands_rejected(simple_pair):
    world, site, laptop = simple_pair
    session = site.server.open_session(laptop)
    assert last_code(session.handle("RETR /x")) == 530
    assert last_code(session.handle("PWD")) == 530


def test_unknown_command(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("FROBNICATE")) == 500
    assert last_code(ss.handle("")) == 500


@pytest.mark.parametrize("line, replies", [
    ("pwd", ['257 "/home/alice" is the current directory.']),
    ("  Type   i  ", ["200 Command okay."]),
    ("\tNOOP\r\n", ["200 Command okay."]),
    ("TYPE", ["501 Syntax error in parameters or arguments."]),
    ("   ", ["500 Syntax error, command unrecognized."]),
    ("frob x", ["500 Syntax error, command unrecognized."]),
], ids=["lower-case", "whitespace", "bare-noop", "bare-type", "blank", "unknown"])
def test_dispatch_replies(session, line, replies):
    world, site, ss, cs = session
    assert ss.handle(line) == replies


def test_feat_lists_extensions(session):
    world, site, ss, cs = session
    lines = ss.handle("FEAT")
    assert lines[0].startswith("211-")
    assert lines[-1] == "211 End"
    assert any("DCSC" in l for l in lines)


def test_feat_follows_the_dcsc_flag_both_ways(session):
    world, site, ss, cs = session
    with_dcsc = ss.handle("FEAT")
    site.server.dcsc_enabled = False
    legacy = ss.handle("FEAT")
    site.server.dcsc_enabled = True
    assert ss.handle("FEAT") == with_dcsc
    assert " DCSC" in with_dcsc
    assert legacy == [line for line in with_dcsc if line != " DCSC"]


def test_a_mutated_feat_reply_leaves_the_next_one_alone(session):
    world, site, ss, cs = session
    first = ss.handle("FEAT")
    expected = list(first)
    first.append(" BOGUS")
    first[1] = " EDITED"
    assert ss.handle("FEAT") == expected


def test_type_and_mode(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("TYPE I")) == 200
    assert ss.type_ == "I"
    assert last_code(ss.handle("MODE E")) == 200
    assert ss.mode == "E"
    assert last_code(ss.handle("TYPE X")) == 501
    assert last_code(ss.handle("MODE Q")) == 501


def test_opts_parallelism(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("OPTS RETR Parallelism=8,8,8;")) == 200
    assert ss.parallelism == 8
    assert last_code(ss.handle("OPTS RETR Parallelism=x;")) == 501
    assert last_code(ss.handle("OPTS STOR foo")) == 501


def test_pbsz_prot_dcau(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("PBSZ 0")) == 200
    assert last_code(ss.handle("PROT P")) == 200
    assert ss.protection.value == "P"
    assert last_code(ss.handle("PROT Z")) == 501
    assert last_code(ss.handle("DCAU N")) == 200
    assert ss.dcau_mode.value == "N"
    assert last_code(ss.handle("DCAU S /O=Lab/CN=someone")) == 200
    assert str(ss.dcau_subject) == "/O=Lab/CN=someone"
    assert last_code(ss.handle("DCAU S")) == 501


@pytest.mark.parametrize("line", ["DCAU S", "DCAU S not-a-dn"],
                         ids=["no-dn", "malformed-dn"])
def test_rejected_dcau_s_keeps_the_login_identity(session, line):
    """A bad DCAU S is a 501 that leaves DCAU checking the logged-in peer."""
    world, site, ss, cs = session
    alice = site.user_credentials["alice"].subject
    assert ss.data_channel_security().expected_identity == alice
    assert last_code(ss.handle(line)) == 501
    assert ss.dcau_mode.value == "A"
    assert ss.dcau_subject is None
    assert ss.data_channel_security().expected_identity == alice


def test_sbuf(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("SBUF 4194304")) == 200
    assert ss.tcp_window == 4194304
    assert last_code(ss.handle("SBUF big")) == 501
    assert last_code(ss.handle("SBUF -5")) == 501
    assert last_code(ss.handle("SBUF 0")) == 501
    assert ss.tcp_window == 4194304


def test_pwd_cwd(session):
    world, site, ss, cs = session
    assert "/home/alice" in ss.handle("PWD")[0]
    site.storage.makedirs("/home/alice/sub", 0)
    site.storage.chown("/home/alice/sub", site.accounts.get("alice").uid)
    assert last_code(ss.handle("CWD sub")) == 250
    assert ss.cwd == "/home/alice/sub"
    assert last_code(ss.handle("CWD /nonexistent")) == 550


def test_mkd_dele_rnfr_rnto(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("MKD newdir")) == 257
    assert site.storage.exists("/home/alice/newdir")
    site.storage.write_file("/home/alice/f", b"x",
                            uid=site.accounts.get("alice").uid)
    assert last_code(ss.handle("RNFR f")) == 350
    assert last_code(ss.handle("RNTO g")) == 250
    assert site.storage.exists("/home/alice/g")
    assert last_code(ss.handle("RNTO h")) == 503  # no RNFR pending
    assert last_code(ss.handle("DELE g")) == 250
    assert last_code(ss.handle("RNFR missing")) == 550


def test_rnto_into_the_renamed_directory_is_refused(session):
    """RNFR d + RNTO d/sub/x would hang d below its own descendant."""
    world, site, ss, cs = session
    uid = site.accounts.get("alice").uid
    site.storage.makedirs("/home/alice/d/sub", uid)
    site.storage.write_file("/home/alice/d/sub/f", b"x", uid=uid)
    assert cs.channel.request("RNFR d")[-1].startswith("350")
    reply = Reply.parse(cs.channel.request("RNTO d/sub/x")[-1])
    assert reply.code == 550 and "own subtree" in reply.text
    assert " d" in cs.channel.request("LIST")
    assert cs.channel.request("SIZE d/sub/f") == ["213 1"]


def test_size_and_mdtm(session):
    world, site, ss, cs = session
    assert ss.handle("SIZE /home/alice/data.bin")[0] == "213 1000"
    assert last_code(ss.handle("SIZE /missing")) == 550
    assert ss.handle("MDTM /home/alice/data.bin")[0].startswith("213 ")


def test_cksm(session):
    world, site, ss, cs = session
    reply = ss.handle("CKSM sha256 /home/alice/data.bin")[0]
    import hashlib

    assert reply == "213 " + hashlib.sha256(b"0123456789" * 100).hexdigest()
    assert last_code(ss.handle("CKSM nope /home/alice/data.bin")) == 504
    assert last_code(ss.handle("CKSM sha256")) == 501


def test_list_inline(session):
    world, site, ss, cs = session
    lines = ss.handle("LIST /home/alice")
    assert lines[0].startswith("250-")
    assert " data.bin" in lines
    assert lines[-1] == "250 End"


def test_pasv_allocates_port(session):
    world, site, ss, cs = session
    reply = ss.handle("PASV")[0]
    assert reply.startswith("227 ")
    assert "server1:" in reply
    addr = reply.split("(")[1].rstrip(")")
    host, port = addr.rsplit(":", 1)
    assert (host, int(port)) in world.network.listeners


def test_pasv_releases_previous_port(session):
    world, site, ss, cs = session
    first = ss.handle("PASV")[0].split("(")[1].rstrip(")")
    ss.handle("PASV")
    host, port = first.rsplit(":", 1)
    assert (host, int(port)) not in world.network.listeners


def test_port_and_spor(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("PORT laptop:50001")) == 200
    assert ss.remote_ports == [("laptop", 50001)]
    assert last_code(ss.handle("SPOR h1:1 h2:2")) == 200
    assert ss.remote_ports == [("h1", 1), ("h2", 2)]
    assert last_code(ss.handle("SPOR")) == 501
    assert last_code(ss.handle("PORT nonsense")) == 501


def test_rest_retr_sets_needed(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("REST 0-500")) == 350
    assert last_code(ss.handle("RETR /home/alice/data.bin")) == 150
    intent = ss.take_intent()
    assert intent.direction == "send"
    # receiver holds [0,500); sender must send [500,1000)
    assert intent.needed.ranges == [(500, 1000)]


def test_retr_missing_file(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("RETR /home/alice/ghost")) == 550


def test_retr_permission_denied(session):
    world, site, ss, cs = session
    site.storage.write_file("/home/alice/secret", b"s", uid=0)
    site.storage.chmod("/home/alice/secret", 0o600, uid=0)
    assert last_code(ss.handle("RETR /home/alice/secret")) == 550


def test_stor_creates_intent(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("STOR /home/alice/up.bin")) == 150
    intent = ss.take_intent()
    assert intent.direction == "recv"
    sink = ss.make_sink(intent, 10)
    sink.write_range(0, b"0123456789")
    sink.close(complete=True)
    uid = site.accounts.get("alice").uid
    assert site.storage.open_read("/home/alice/up.bin", uid).read_all() == b"0123456789"


def test_take_intent_requires_pending(session):
    world, site, ss, cs = session
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        ss.take_intent()


def test_abor_clears_pending(session):
    world, site, ss, cs = session
    ss.handle("RETR /home/alice/data.bin")
    assert last_code(ss.handle("ABOR")) == 226
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        ss.take_intent()


def test_eret_partial_retrieve(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("ERET P 100 200 /home/alice/data.bin")) == 150
    intent = ss.take_intent()
    assert intent.needed.ranges == [(100, 300)]
    assert last_code(ss.handle("ERET X 1 2 /f")) == 501


def test_dcsc_p_and_d(session):
    world, site, ss, cs = session
    from repro.gridftp.dcsc import encode_dcsc_blob
    from repro.pki.ca import self_signed_credential
    from repro.pki.dn import DistinguishedName as DN

    ss_cred = self_signed_credential(DN.parse("/CN=ctx"), world.clock,
                                     world.rng.python("t"))
    blob = encode_dcsc_blob(ss_cred)
    assert last_code(ss.handle(f"DCSC P {blob}")) == 200
    assert ss.dcsc is not None
    assert last_code(ss.handle("DCSC D")) == 200
    assert ss.dcsc is None
    assert last_code(ss.handle("DCSC Q blah")) == 501
    assert last_code(ss.handle("DCSC P garbage!!!")) == 501
    assert last_code(ss.handle("DCSC")) == 501


def test_legacy_server_rejects_dcsc(simple_pair):
    world, site, laptop = simple_pair
    world.network.add_host("server2")
    world.network.add_link("server2", "laptop", 1e9, 0.01)
    legacy_site = make_conventional_site(world, "Legacy", "server2", port=2812)
    legacy_site.server.dcsc_enabled = False
    legacy_site.add_user(world, "alice")
    client = legacy_site.client_for(world, "alice", laptop)
    cs = client.connect(legacy_site.server)
    assert last_code(cs.server_session.handle("DCSC P whatever")) == 500
    assert not any("DCSC" in l for l in cs.server_session.handle("FEAT"))


def test_quit_closes(session):
    world, site, ss, cs = session
    assert last_code(ss.handle("QUIT")) == 221
    assert ss.closed
    assert last_code(ss.handle("NOOP")) == 421


def test_bad_adat_drops_connection(simple_pair):
    world, site, laptop = simple_pair
    ss = site.server.open_session(laptop)
    ss.handle("AUTH GSSAPI")
    replies = ss.handle("ADAT notbase64!!!")
    assert last_code(replies) == 535
    assert ss.closed


def test_adat_untrusted_credential_rejected(simple_pair):
    world, site, laptop = simple_pair
    from repro.pki.ca import CertificateAuthority
    from repro.pki.dn import DistinguishedName as DN
    from repro.util.encoding import b64encode_str

    other = CertificateAuthority(DN.parse("/O=X/CN=X"), world.clock,
                                 world.rng.python("o"), key_bits=256)
    eve = other.issue_credential(DN.parse("/O=X/CN=eve"))
    ss = site.server.open_session(laptop)
    ss.handle("AUTH GSSAPI")
    replies = ss.handle(f"ADAT {b64encode_str(eve.to_pem().encode())}")
    assert last_code(replies) == 535


@pytest.mark.traced
def test_usage_reporting_toggle(session):
    world, site, ss, cs = session
    from repro.gridftp.transfer import TransferResult

    result = TransferResult(nbytes=10, start_time=0, end_time=1, streams=1,
                            stripes=1, verified=True, checksum="x")
    site.server.usage_reporting = False
    site.server.record_transfer(result, "retrieve", "/p")
    assert world.log.count("usage.record") == 0
    site.server.usage_reporting = True
    site.server.record_transfer(result, "retrieve", "/p")
    assert world.log.count("usage.record") == 1
