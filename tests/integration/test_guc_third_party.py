"""globus-url-copy gsiftp://A -> gsiftp://B (same trust domain)."""

import pytest

from repro.gridftp.client import globus_url_copy
from repro.gridftp.transfer import TransferOptions
from repro.storage.data import LiteralData
from repro.util.units import gbps
from tests.conftest import make_conventional_site


@pytest.fixture
def same_domain_pair(world):
    net = world.network
    net.add_host("dtn1", nic_bps=gbps(10))
    net.add_host("dtn2", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("dtn1", "dtn2", gbps(10), 0.02)
    net.add_link("laptop", "dtn1", gbps(0.1), 0.01)
    net.add_link("laptop", "dtn2", gbps(0.1), 0.01)
    site1 = make_conventional_site(world, "Site1", "dtn1")
    site1.add_user(world, "alice")
    # second server in the SAME trust domain: same CA anchored, user mapped
    site2 = make_conventional_site(world, "Site2", "dtn2", port=2811)
    site2.trust.add_anchor(site1.ca.certificate)
    site1.trust.add_anchor(site2.ca.certificate)
    alice = site1.user_credentials["alice"]
    site2.accounts.add_user("alice")
    site2.gridmap.add(alice.subject, "alice")
    site2.storage.makedirs("/home/alice", 0)
    site2.storage.chown("/home/alice", site2.accounts.get("alice").uid)
    uid = site1.accounts.get("alice").uid
    site1.storage.write_file("/home/alice/f.bin", LiteralData(b"guc" * 10_000),
                             uid=uid)
    return world, site1, site2


def test_guc_server_to_server(same_domain_pair):
    world, site1, site2 = same_domain_pair
    client = site1.client_for(world, "alice", "laptop")
    res = globus_url_copy(
        world,
        "gsiftp://dtn1:2811/home/alice/f.bin",
        "gsiftp://dtn2:2811/home/alice/f.bin",
        client,
        TransferOptions(parallelism=4),
    )
    assert res.verified
    uid2 = site2.accounts.get("alice").uid
    assert site2.storage.open_read("/home/alice/f.bin", uid2).read_all() == b"guc" * 10_000


def test_guc_closes_sessions_even_on_failure(same_domain_pair, monkeypatch):
    world, site1, site2 = same_domain_pair
    client = site1.client_for(world, "alice", "laptop")
    from repro.errors import ProtocolError

    servers = (site1.server, site2.server)
    open_before = [len(server.sessions) for server in servers]
    opened = []
    for server in servers:
        def open_session(host, _open=server.open_session):
            opened.append(_open(host))
            return opened[-1]
        monkeypatch.setattr(server, "open_session", open_session)
    with pytest.raises(ProtocolError):
        globus_url_copy(world, "gsiftp://dtn1:2811/home/alice/ghost.bin",
                        "gsiftp://dtn2:2811/home/alice/x.bin", client)
    # the failed copy opened sessions and closed every one of them again;
    # a server lists open sessions only, so its count is back where it was
    assert opened and all(s.closed for s in opened)
    assert [len(server.sessions) for server in servers] == open_before
