"""Transfer jobs: Figure 6 fault recovery, auto-tuning, cross-domain DCSC."""

import pytest

from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.storage.data import LiteralData, SyntheticData
from repro.util.units import GB, HOUR, gbps
from tests.conftest import make_gcmu_site


@pytest.fixture
def go_world(world):
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    inter = net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "saas")
    ep_a = make_gcmu_site(world, "dtn-a", "alcf", {"alice": "pwA"},
                          register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_gcmu_site(world, "dtn-b", "nersc", {"asmith": "pwB"},
                          register_with=go, endpoint_name="nersc#dtn")
    user = go.register_user("alice@globusid")
    go.activate(user, "alcf#dtn", "alice", "pwA")
    go.activate(user, "nersc#dtn", "asmith", "pwB")
    uid = ep_a.accounts.get("alice").uid
    ep_a.storage.write_file("/home/alice/big.dat",
                            SyntheticData(seed=9, length=20 * GB), uid=uid)
    ep_a.storage.write_file("/home/alice/small.dat",
                            LiteralData(b"tiny payload"), uid=uid)
    return world, go, ep_a, ep_b, user, inter.link_id


@pytest.mark.traced
def test_job_succeeds_cross_domain_via_dcsc(go_world):
    """GO endpoints live in different CA domains; DCSC is automatic."""
    world, go, ep_a, ep_b, user, link = go_world
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/small.dat",
                             "nersc#dtn", "/home/asmith/small.dat")
    assert job.status is JobStatus.SUCCEEDED
    assert job.attempts == 1
    uid = ep_b.accounts.get("asmith").uid
    assert ep_b.storage.open_read("/home/asmith/small.dat", uid).read_all() == b"tiny payload"
    # DCSC was installed at an endpoint
    assert world.log.count("gridftp.dcsc") >= 1


def test_job_survives_mid_transfer_fault(go_world):
    world, go, ep_a, ep_b, user, link = go_world
    world.faults.cut_link(link, at=world.now + 30.0, duration=60.0)
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/big.dat",
                             "nersc#dtn", "/home/asmith/big.dat")
    assert job.status is JobStatus.SUCCEEDED
    assert job.faults_survived >= 1
    assert job.attempts >= 2
    assert job.bytes_at_checkpoint > 0
    # the restart moved strictly less than the whole file
    assert job.result.nbytes < 20 * GB
    uid = ep_b.accounts.get("asmith").uid
    final = ep_b.storage.open_read("/home/asmith/big.dat", uid)
    assert final.fingerprint() == SyntheticData(seed=9, length=20 * GB).fingerprint()


def test_job_fails_without_activation(go_world):
    world, go, ep_a, ep_b, user, link = go_world
    stranger = go.register_user("stranger@globusid")
    job = go.submit_transfer(stranger, "alcf#dtn", "/home/alice/small.dat",
                             "nersc#dtn", "/home/asmith/x.dat")
    assert job.status is JobStatus.FAILED
    assert "not activated" in job.error


def test_job_fails_on_missing_file(go_world):
    world, go, ep_a, ep_b, user, link = go_world
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/ghost.dat",
                             "nersc#dtn", "/home/asmith/x.dat")
    assert job.status is JobStatus.FAILED


def test_job_fails_when_activation_expired(go_world):
    world, go, ep_a, ep_b, user, link = go_world
    world.advance(13 * HOUR)  # default MyProxy lifetime is 12h
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/small.dat",
                             "nersc#dtn", "/home/asmith/x.dat")
    assert job.status is JobStatus.FAILED
    assert "expired" in job.error


def test_autotune_applied_when_no_options(go_world):
    world, go, ep_a, ep_b, user, link = go_world
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/big.dat",
                             "nersc#dtn", "/home/asmith/tuned.dat")
    assert job.status is JobStatus.SUCCEEDED
    # a 20 GB file over a 80 ms path should get multiple streams
    assert job.result.streams > 1


def test_job_ids_unique_and_tracked(go_world):
    world, go, ep_a, ep_b, user, link = go_world
    j1 = go.submit_transfer(user, "alcf#dtn", "/home/alice/small.dat",
                            "nersc#dtn", "/home/asmith/1.dat")
    j2 = go.submit_transfer(user, "alcf#dtn", "/home/alice/small.dat",
                            "nersc#dtn", "/home/asmith/2.dat")
    assert j1.job_id != j2.job_id
    assert go.job_status(j1.job_id) is JobStatus.SUCCEEDED


@pytest.mark.traced
def test_job_checksum_verified_flag(go_world):
    """The service CKSMs both endpoints after every successful job."""
    world, go, ep_a, ep_b, user, link = go_world
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/small.dat",
                             "nersc#dtn", "/home/asmith/ck.dat")
    assert job.checksum_verified
    # the CKSM exchanges appear on both control channels
    cksm_events = [e for e in world.log.select("gridftp.command")
                   if e.fields["verb"] == "CKSM"]
    assert len(cksm_events) >= 2
