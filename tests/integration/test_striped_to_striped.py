"""Striped source to striped destination: the full SPAS + SPOR dance."""

import pytest

from repro.gridftp.striped import StripedGridFTPServer
from repro.gridftp.third_party import third_party_transfer
from repro.gridftp.transfer import TransferOptions
from repro.gsi.authz import GridmapCallout
from repro.pki.dn import DistinguishedName as DN
from repro.storage.data import LiteralData
from repro.storage.posix import PosixStorage
from repro.util.units import MB, gbps
from tests.conftest import make_conventional_site


@pytest.fixture
def twin_clusters(world):
    net = world.network
    net.add_router("wan", nic_bps=gbps(100))
    for cluster in ("east", "west"):
        net.add_host(f"{cluster}-head", nic_bps=gbps(10))
        net.add_link(f"{cluster}-head", "wan", gbps(10), 0.02)
        for i in range(3):
            net.add_host(f"{cluster}-dtp{i}", nic_bps=gbps(1))
            net.add_link(f"{cluster}-dtp{i}", "wan", gbps(1), 0.02)
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("laptop", "wan", gbps(1), 0.02)

    # one trust domain for both clusters (same org, two facilities)
    anchor_site = make_conventional_site(world, "Org", "east-head", port=9999)
    anchor_site.add_user(world, "alice")

    def build(cluster, port):
        fs = PosixStorage(world.clock)
        fs.makedirs("/home/alice", 0)
        fs.chown("/home/alice", anchor_site.accounts.get("alice").uid)
        server = StripedGridFTPServer(
            world, f"{cluster}-head", [f"{cluster}-dtp{i}" for i in range(3)],
            anchor_site.ca.issue_credential(
                DN.parse(f"/O=Org/OU=hosts/CN={cluster}-head")),
            anchor_site.trust, GridmapCallout(anchor_site.gridmap),
            anchor_site.accounts, fs, port=port, name=f"striped-{cluster}",
        ).start()
        return server, fs

    east, east_fs = build("east", 2811)
    west, west_fs = build("west", 2812)
    return world, anchor_site, east, east_fs, west, west_fs


CONTENT = bytes(range(256)) * 2048  # 512 KiB patterned


def test_striped_to_striped_transfer(twin_clusters):
    world, site, east, east_fs, west, west_fs = twin_clusters
    uid = site.accounts.get("alice").uid
    east_fs.write_file("/home/alice/data.bin", LiteralData(CONTENT), uid=uid)

    client = site.client_for(world, "alice", "laptop")
    src = client.connect(east)
    dst = client.connect(west)
    res = third_party_transfer(
        src, "/home/alice/data.bin", dst, "/home/alice/data.bin",
        options=TransferOptions(parallelism=2, block_size=32 * 1024),
    )
    assert res.stripes == 3  # three stripe-pair flows
    assert res.streams == 6
    assert res.verified
    out = west_fs.open_read("/home/alice/data.bin", uid)
    assert out.read_all() == CONTENT


@pytest.mark.traced
def test_spas_spor_negotiation_visible(twin_clusters):
    world, site, east, east_fs, west, west_fs = twin_clusters
    uid = site.accounts.get("alice").uid
    east_fs.write_file("/home/alice/x.bin", LiteralData(b"z" * MB), uid=uid)
    client = site.client_for(world, "alice", "laptop")
    src = client.connect(east)
    dst = client.connect(west)
    third_party_transfer(src, "/home/alice/x.bin", dst, "/home/alice/x.bin")
    verbs = [e.fields["verb"] for e in world.log.select("gridftp.command")]
    assert "SPAS" in verbs
    assert "SPOR" in verbs
