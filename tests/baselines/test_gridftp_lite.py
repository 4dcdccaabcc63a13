"""GridFTP-Lite: its conveniences and its three limitations."""

import pytest

from repro.auth.accounts import AccountDatabase
from repro.baselines.gridftp_lite import GridFTPLite
from repro.errors import AuthenticationError, DCAUError, DelegationError
from repro.gridftp.dcau import DCAUMode
from repro.gridftp.transfer import TransferOptions
from repro.storage.data import LiteralData
from repro.storage.posix import PosixStorage
from repro.util.units import gbps
from repro.xio.drivers import Protection


@pytest.fixture
def lite_env(world):
    net = world.network
    net.add_host("target", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("target", "laptop", gbps(1), 0.02)
    accounts = AccountDatabase()
    accounts.add_user("alice")
    fs = PosixStorage(world.clock)
    fs.makedirs("/home/alice", 0)
    fs.chown("/home/alice", accounts.get("alice").uid)
    fs.write_file("/home/alice/d.bin", LiteralData(b"lite data" * 100),
                  uid=accounts.get("alice").uid)
    lite = GridFTPLite(world, "target", accounts, fs)
    lite.add_ssh_user("alice", "ssh-pw")
    return world, lite, fs


def test_ssh_login_and_get(lite_env):
    world, lite, fs = lite_env
    session = lite.ssh_login("laptop", "alice", "ssh-pw")
    local = PosixStorage(world.clock)
    local.makedirs("/tmp", 0)
    res = session.get("/home/alice/d.bin", local, "/tmp/d.bin")
    assert res.verified
    assert local.open_read("/tmp/d.bin", 0).read_all() == b"lite data" * 100


def test_wrong_password(lite_env):
    world, lite, fs = lite_env
    with pytest.raises(AuthenticationError):
        lite.ssh_login("laptop", "alice", "wrong")


def test_unknown_ssh_user(lite_env):
    world, lite, fs = lite_env
    with pytest.raises(AuthenticationError):
        lite.ssh_login("laptop", "mallory", "x")


def test_ssh_user_requires_local_account(lite_env):
    world, lite, fs = lite_env
    from repro.errors import UnknownUserError

    with pytest.raises(UnknownUserError):
        lite.add_ssh_user("ghost", "pw")


@pytest.mark.traced
def test_limitation1_no_data_channel_security(lite_env):
    """'First, the data channel has no security.'"""
    world, lite, fs = lite_env
    session = lite.ssh_login("laptop", "alice", "ssh-pw")
    local = PosixStorage(world.clock)
    local.makedirs("/tmp", 0)
    with pytest.raises(DCAUError, match="cannot protect the data channel"):
        session.get("/home/alice/d.bin", local, "/tmp/d.bin",
                    TransferOptions(protection=Protection.PRIVATE))
    # asking for DCAU silently degrades to N (as the real tool does)
    res = session.get("/home/alice/d.bin", local, "/tmp/d.bin",
                      TransferOptions(dcau=DCAUMode.SELF))
    assert res.verified
    ev = world.log.select("gridftp_lite.transfer")[-1]
    assert ev.fields["dcau"] == "N"


def test_limitation2_no_delegation(lite_env):
    """'users cannot hand off SSH-based GridFTP transfers to ... Globus Online'"""
    world, lite, fs = lite_env
    session = lite.ssh_login("laptop", "alice", "ssh-pw")
    with pytest.raises(DelegationError):
        session.delegate()


@pytest.mark.traced
def test_limitation3_insecure_striped_internal_channel(lite_env):
    """'no security exists on the communication channel between the
    control node and the data mover node'"""
    world, lite, fs = lite_env
    world.network.add_host("mover1", nic_bps=gbps(1))
    world.network.add_link("mover1", "laptop", gbps(1), 0.02)
    accounts = AccountDatabase()
    accounts.add_user("alice")
    striped = GridFTPLite(world, "target", accounts, fs,
                          stripe_hosts=("target", "mover1"))
    striped.internal_message("mover1", "serve stripe 1")
    ev = world.log.select("gridftp.striped.internal")[-1]
    assert ev.fields["secure"] is False
