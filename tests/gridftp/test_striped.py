"""Striped servers (Figure 2's cluster composition)."""

import pytest

from repro.errors import NetworkError
from repro.gridftp.striped import StripedGridFTPServer
from repro.gridftp.transfer import TransferOptions
from repro.storage.data import SyntheticData
from repro.storage.posix import PosixStorage
from repro.util.units import GB, MB, gbps
from tests.conftest import make_conventional_site


@pytest.fixture
def cluster(world):
    """A 4-node striped cluster facing a plain remote server."""
    net = world.network
    net.add_host("head", nic_bps=gbps(1))
    stripe_hosts = []
    for i in range(4):
        h = f"dtp{i}"
        net.add_host(h, nic_bps=gbps(1))
        stripe_hosts.append(h)
    net.add_host("remote", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_router("wan")
    net.add_link("head", "wan", gbps(10), 0.01)
    for h in stripe_hosts:
        net.add_link(h, "wan", gbps(1), 0.01)
    net.add_link("remote", "wan", gbps(10), 0.02)
    net.add_link("laptop", "wan", gbps(1), 0.02)

    remote_site = make_conventional_site(world, "Remote", "remote")
    remote_site.add_user(world, "alice")

    # the striped cluster shares the remote site's CA for simplicity
    from repro.gsi.authz import GridmapCallout
    from repro.pki.dn import DistinguishedName as DN

    shared_fs = PosixStorage(world.clock)
    cluster_server = StripedGridFTPServer(
        world,
        "head",
        stripe_hosts,
        remote_site.ca.issue_credential(DN.parse("/O=Remote/OU=hosts/CN=head")),
        remote_site.trust,
        GridmapCallout(remote_site.gridmap),
        remote_site.accounts,
        shared_fs,
        port=2811,
    ).start()
    shared_fs.makedirs("/home/alice", 0)
    shared_fs.chown("/home/alice", remote_site.accounts.get("alice").uid)
    return world, remote_site, cluster_server, shared_fs


def test_requires_stripe_hosts(world):
    net = world.network
    net.add_host("h")
    from repro.pki.ca import CertificateAuthority
    from repro.pki.dn import DistinguishedName as DN
    from repro.pki.validation import TrustStore
    from repro.gsi.authz import GridmapCallout
    from repro.gsi.gridmap import Gridmap
    from repro.auth.accounts import AccountDatabase

    ca = CertificateAuthority(DN.parse("/CN=CA"), world.clock,
                              world.rng.python("x"), key_bits=256)
    with pytest.raises(NetworkError):
        StripedGridFTPServer(
            world, "h", [], ca.issue_credential(DN.parse("/CN=h")), TrustStore(),
            GridmapCallout(Gridmap()), AccountDatabase(), PosixStorage(world.clock),
        )


def test_spas_returns_one_address_per_stripe(cluster):
    world, remote_site, striped, fs = cluster
    client = remote_site.client_for(world, "alice", "laptop")
    session = client.connect(striped)
    addrs = session.striped_passive()
    assert len(addrs) == 4
    assert {h for h, _ in addrs} == {f"dtp{i}" for i in range(4)}


def test_striping_aggregates_bandwidth(cluster):
    """4 x 1 Gb/s stripe nodes beat a single 1 Gb/s mover."""
    world, remote_site, striped, fs = cluster
    uid = remote_site.accounts.get("alice").uid
    data = SyntheticData(seed=31, length=4 * GB)
    fs.write_file("/home/alice/big.bin", data, uid=uid)
    remote_site.storage.write_file("/home/alice/big.bin", data, uid=uid)

    from repro.gridftp.third_party import third_party_transfer

    opts = TransferOptions(parallelism=4, tcp_window_bytes=16 * MB)
    client = remote_site.client_for(world, "alice", "laptop")

    # striped source -> plain destination
    src = client.connect(striped)
    dst = client.connect(remote_site.server)
    striped_res = third_party_transfer(src, "/home/alice/big.bin",
                                       dst, "/home/alice/copy1.bin", opts)
    assert striped_res.stripes == 4
    assert striped_res.verified

    # plain source (single 1 Gb/s-ish mover behind same WAN): compare rate
    # against a single stripe by measuring a 1-stripe striped server
    single = StripedGridFTPServer(
        world, "head", ["dtp0"],
        striped.credential, remote_site.trust, striped.authz,
        remote_site.accounts, fs, port=2899, name="single-stripe",
    ).start()
    src1 = client.connect(single)
    dst1 = client.connect(remote_site.server)
    single_res = third_party_transfer(src1, "/home/alice/big.bin",
                                      dst1, "/home/alice/copy2.bin", opts)
    assert striped_res.rate_bps > 2.5 * single_res.rate_bps


@pytest.mark.traced
def test_internal_messages_logged_with_security_flag(cluster):
    world, remote_site, striped, fs = cluster
    striped.dispatch_stripe_plan(["/home/alice/x"])
    events = world.log.select("gridftp.striped.internal")
    assert events
    assert all(ev.fields["secure"] is True for ev in events)


def test_internal_message_rejects_foreign_host(cluster):
    world, remote_site, striped, fs = cluster
    with pytest.raises(NetworkError):
        striped.internal_message("remote", "hello")


@pytest.mark.traced
def test_insecure_internal_channel_flag(cluster):
    world, remote_site, striped, fs = cluster
    insecure = StripedGridFTPServer(
        world, "head", ["dtp0"], striped.credential, remote_site.trust,
        striped.authz, remote_site.accounts, fs, port=2900,
        internal_channel_secure=False, name="lite-like",
    )
    insecure.internal_message("dtp0", "open /f")
    ev = world.log.select("gridftp.striped.internal", server="lite-like")[-1]
    assert ev.fields["secure"] is False
