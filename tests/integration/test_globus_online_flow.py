"""End-to-end: the Figure 6/7 Globus Online stories."""

import pytest

from repro.globusonline import OAuthServer
from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.storage.data import SyntheticData
from repro.util.units import GB, gbps
from tests.conftest import make_gcmu_site


@pytest.fixture
def saas(world):
    net = world.network
    for h in ("dtn-a", "dtn-b", "go"):
        net.add_host(h, nic_bps=gbps(10))
    inter = net.add_link("dtn-a", "dtn-b", gbps(10), 0.045, loss=1e-5)
    net.add_link("go", "dtn-a", gbps(1), 0.02)
    net.add_link("go", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "go")
    ep_a = make_gcmu_site(world, "dtn-a", "alcf", {"alice": "pwA"},
                          register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_gcmu_site(world, "dtn-b", "nersc", {"asmith": "pwB"},
                          register_with=go, endpoint_name="nersc#dtn")
    uid = ep_a.accounts.get("alice").uid
    ep_a.storage.write_file("/home/alice/campaign.dat",
                            SyntheticData(seed=17, length=50 * GB), uid=uid)
    return world, go, ep_a, ep_b, inter.link_id


def test_figure6_full_story(saas):
    """Activate both endpoints, transfer, survive two faults, verify."""
    world, go, ep_a, ep_b, link = saas
    user = go.register_user("alice@globusid")
    go.activate(user, "alcf#dtn", "alice", "pwA")
    go.activate(user, "nersc#dtn", "asmith", "pwB")
    # two outages during what will be a multi-minute transfer
    world.faults.cut_link(link, at=world.now + 60.0, duration=40.0)
    world.faults.cut_link(link, at=world.now + 240.0, duration=40.0)

    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/campaign.dat",
                             "nersc#dtn", "/home/asmith/campaign.dat")
    assert job.status is JobStatus.SUCCEEDED
    assert job.faults_survived == 2
    assert job.attempts == 3
    uid = ep_b.accounts.get("asmith").uid
    data = ep_b.storage.open_read("/home/asmith/campaign.dat", uid)
    assert data.fingerprint() == SyntheticData(seed=17, length=50 * GB).fingerprint()
    # wasted work is bounded: total payload re-sent < 2 full files
    total_sent = job.result.nbytes + job.bytes_at_checkpoint
    assert total_sent <= 50 * GB * 1.05


def test_go_never_stores_password_but_holds_certificate(saas):
    world, go, ep_a, ep_b, link = saas
    user = go.register_user("alice@globusid")
    act = go.activate(user, "alcf#dtn", "alice", "pwA")
    # what GO retains is the short-term credential, not the password
    assert act.credential.valid_at(world.now)
    stored_fields = vars(act)
    assert "pwA" not in str(stored_fields)


@pytest.mark.traced
def test_figure7_oauth_end_to_end(saas):
    world, go, ep_a, ep_b, link = saas
    oauth_a = OAuthServer(world, "dtn-a", ep_a.myproxy, port=8443).start()
    go.attach_oauth("alcf#dtn", oauth_a)
    user = go.register_user("alice@globusid")
    world.log.clear()
    go.activate_oauth(user, "alcf#dtn", "alice", "pwA")
    go.activate(user, "nersc#dtn", "asmith", "pwB")
    # password exposure: alcf password seen ONLY by the site
    alcf_exposures = [e for e in world.log.select("credential.exposure")
                      if e.fields.get("username") == "alice"]
    assert {e.fields["party"] for e in alcf_exposures} == {"site:alcf"}
    # the OAuth-activated endpoint transfers normally
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/campaign.dat",
                             "nersc#dtn", "/home/asmith/oauth-copy.dat")
    assert job.status is JobStatus.SUCCEEDED


def test_endpoint_outage_during_activation_window(saas):
    """Endpoint down at submit time: GO waits and completes."""
    world, go, ep_a, ep_b, link = saas
    user = go.register_user("alice@globusid")
    go.activate(user, "alcf#dtn", "alice", "pwA")
    go.activate(user, "nersc#dtn", "asmith", "pwB")
    world.faults.crash_host("dtn-b", at=world.now + 1.0, duration=120.0)
    world.advance(5.0)  # submit lands inside the outage
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/campaign.dat",
                             "nersc#dtn", "/home/asmith/late.dat")
    assert job.status is JobStatus.SUCCEEDED
    assert job.attempts >= 1
