"""Plain FTP, HTTP and rsync baselines."""

import pytest

from repro.baselines.ftp_plain import PlainFtpTool
from repro.baselines.http import HttpTool
from repro.baselines.rsync import RsyncTool
from repro.errors import TransferError
from repro.util.units import MB, gbps


@pytest.fixture
def topo(world):
    net = world.network
    net.add_host("server", nic_bps=gbps(10))
    net.add_host("client", nic_bps=gbps(1))
    link = net.add_link("server", "client", gbps(1), 0.03, loss=1e-5)
    return world, link.link_id


# -- FTP -------------------------------------------------------------------


@pytest.mark.traced
def test_ftp_fetch_and_cleartext_exposure(topo):
    world, link = topo
    ftp = PlainFtpTool(world, "client")
    world.log.clear()
    res = ftp.fetch("server", 5 * MB, username="alice", password="pw")
    assert res.tool == "ftp"
    exposures = world.log.select("credential.exposure")
    assert exposures and exposures[0].fields["party"] == "network:cleartext"


def test_ftp_no_rest_restarts_from_zero(topo):
    world, link = topo
    ftp = PlainFtpTool(world, "client")
    world.faults.cut_link(link, at=world.now + 3.0, duration=5.0)
    res = ftp.fetch("server", 50 * MB, use_rest=False)
    assert res.restarted_from_zero >= 1
    assert res.wasted_bytes > 0


def test_ftp_rest_resumes(topo):
    world, link = topo
    ftp = PlainFtpTool(world, "client")
    world.faults.cut_link(link, at=world.now + 3.0, duration=5.0)
    res = ftp.fetch("server", 50 * MB, use_rest=True)
    assert res.restarted_from_zero == 0
    assert res.wasted_bytes == 0


def test_ftp_gives_up(topo):
    world, link = topo
    ftp = PlainFtpTool(world, "client", max_retries=1)
    world.faults.cut_link(link, at=world.now + 0.5, duration=1e9)
    with pytest.raises(TransferError):
        ftp.fetch("server", 500 * MB)


# -- HTTP ----------------------------------------------------------------------


def test_http_download(topo):
    world, link = topo
    http = HttpTool(world, "client")
    res = http.download("server", 5 * MB)
    assert res.tool == "http"
    assert res.rate_bps > 0


def test_http_range_resume_vs_no_resume(topo):
    world, link = topo
    http = HttpTool(world, "client")
    world.faults.cut_link(link, at=world.now + 3.0, duration=5.0)
    res = http.download("server", 50 * MB, resume=True)
    assert res.wasted_bytes == 0
    world.faults.clear()
    world.faults.cut_link(link, at=world.now + 3.0, duration=5.0)
    res2 = http.download("server", 50 * MB, resume=False)
    assert res2.wasted_bytes > 0


def test_http_no_third_party(topo):
    world, link = topo
    http = HttpTool(world, "client")
    with pytest.raises(TransferError, match="third-party"):
        http.third_party("a", "b")


# -- rsync --------------------------------------------------------------------------


def test_rsync_full_sync(topo):
    world, link = topo
    rsync = RsyncTool(world, "client")
    res = rsync.sync("client", "server", 10 * MB)
    assert res.tool == "rsync"
    assert res.nbytes == 10 * MB


def test_rsync_delta_moves_only_missing(topo):
    world, link = topo
    rsync = RsyncTool(world, "client")
    full = rsync.sync("client", "server", 10 * MB)
    delta = rsync.sync("client", "server", 10 * MB, bytes_already_at_dest=9 * MB)
    assert delta.nbytes == 1 * MB
    assert delta.duration_s < full.duration_s


def test_rsync_no_third_party(topo):
    world, link = topo
    world.network.add_host("third", nic_bps=gbps(1))
    world.network.add_link("third", "server", gbps(1), 0.01)
    rsync = RsyncTool(world, "client")
    with pytest.raises(TransferError, match="third-party"):
        rsync.sync("server", "third", MB)


def test_rsync_partial_continue_after_fault(topo):
    world, link = topo
    rsync = RsyncTool(world, "client")
    world.faults.cut_link(link, at=world.now + 3.0, duration=5.0)
    res = rsync.sync("client", "server", 100 * MB)
    assert res.nbytes == 100 * MB  # completed across the fault
