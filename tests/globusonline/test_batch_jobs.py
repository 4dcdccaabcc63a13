"""Batch (multi-file / directory-style) Globus Online transfers."""

import pytest

from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.storage.data import LiteralData
from repro.util.units import KB, gbps
from tests.conftest import make_gcmu_site

FILE_COUNT = 50
FILE_SIZE = 64 * KB


@pytest.fixture
def batch_world(world):
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.03, loss=1e-6)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "saas")
    ep_a = make_gcmu_site(world, "dtn-a", "alcf", {"alice": "pwA"},
                          register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_gcmu_site(world, "dtn-b", "nersc", {"asmith": "pwB"},
                          register_with=go, endpoint_name="nersc#dtn")
    uid = ep_a.accounts.get("alice").uid
    pairs = []
    for i in range(FILE_COUNT):
        path = f"/home/alice/dir/f{i:04d}.dat"
        ep_a.storage.write_file(path, LiteralData(bytes([i % 256]) * FILE_SIZE),
                                uid=uid)
        pairs.append((path, f"/home/asmith/dir/f{i:04d}.dat"))
    # destination directory must exist for STOR into it
    ep_b.storage.makedirs("/home/asmith/dir", 0)
    ep_b.storage.chown("/home/asmith/dir", ep_b.accounts.get("asmith").uid)
    user = go.register_user("alice@globusid")
    go.activate(user, "alcf#dtn", "alice", "pwA")
    go.activate(user, "nersc#dtn", "asmith", "pwB")
    return world, go, ep_a, ep_b, user, pairs


def test_batch_moves_every_file_intact(batch_world):
    world, go, ep_a, ep_b, user, pairs = batch_world
    job = go.submit_batch_transfer(user, "alcf#dtn", "nersc#dtn", pairs)
    assert job.status is JobStatus.SUCCEEDED
    assert job.files_done == FILE_COUNT
    assert job.bytes_done == FILE_COUNT * FILE_SIZE
    uid = ep_b.accounts.get("asmith").uid
    for i, (_, dp) in enumerate(pairs):
        data = ep_b.storage.open_read(dp, uid)
        assert data.read_all() == bytes([i % 256]) * FILE_SIZE


@pytest.mark.traced
def test_batch_autotunes_for_small_files(batch_world):
    world, go, ep_a, ep_b, user, pairs = batch_world
    job = go.submit_batch_transfer(user, "alcf#dtn", "nersc#dtn", pairs)
    assert job.status is JobStatus.SUCCEEDED
    # the control channel was pipelined: SIZE/STOR/RETR counts match the
    # file count but arrive in a handful of batched round trips
    verbs = [e.fields["verb"] for e in world.log.select("gridftp.command")]
    assert verbs.count("RETR") >= FILE_COUNT
    assert verbs.count("SIZE") >= FILE_COUNT


def test_batch_faster_than_sequential_single_jobs(batch_world):
    world, go, ep_a, ep_b, user, pairs = batch_world
    subset = pairs[:12]
    t0 = world.now
    job = go.submit_batch_transfer(user, "alcf#dtn", "nersc#dtn",
                                   [(s, d + ".batch") for s, d in subset])
    batch_elapsed = world.now - t0
    assert job.status is JobStatus.SUCCEEDED
    t0 = world.now
    for s, d in subset:
        single = go.submit_transfer(user, "alcf#dtn", s, "nersc#dtn",
                                    d + ".single")
        assert single.status is JobStatus.SUCCEEDED
    sequential_elapsed = world.now - t0
    assert batch_elapsed < sequential_elapsed / 3


@pytest.mark.traced
def test_batch_cross_domain_uses_dcsc(batch_world):
    world, go, ep_a, ep_b, user, pairs = batch_world
    world.log.clear()
    job = go.submit_batch_transfer(user, "alcf#dtn", "nersc#dtn", pairs[:3])
    assert job.status is JobStatus.SUCCEEDED
    assert world.log.count("gridftp.dcsc") >= 1


def test_batch_fails_cleanly_on_missing_file(batch_world):
    world, go, ep_a, ep_b, user, pairs = batch_world
    bad = pairs[:2] + [("/home/alice/ghost.dat", "/home/asmith/ghost.dat")]
    job = go.submit_batch_transfer(user, "alcf#dtn", "nersc#dtn", bad)
    assert job.status is JobStatus.FAILED
    assert job.error


def test_batch_opens_each_destination_when_its_file_starts(batch_world):
    """A batch whose 11th destination is a directory writes the first ten
    files, fails there, and never creates the last nine."""
    world, go, ep_a, ep_b, user, pairs = batch_world
    batch = pairs[:20]
    ep_b.storage.makedirs(batch[10][1], 0)
    job = go.submit_batch_transfer(user, "alcf#dtn", "nersc#dtn", batch)
    assert job.status is JobStatus.FAILED
    assert job.files_done == 10
    uid = ep_b.accounts.get("asmith").uid
    for i, (_, dp) in enumerate(batch[:10]):
        assert ep_b.storage.open_read(dp, uid).read_all() == bytes([i % 256]) * FILE_SIZE
    assert not any(ep_b.storage.exists(dp) for _, dp in batch[11:])


def test_batch_requires_activation(batch_world):
    world, go, ep_a, ep_b, user, pairs = batch_world
    stranger = go.register_user("stranger@globusid")
    job = go.submit_batch_transfer(stranger, "alcf#dtn", "nersc#dtn", pairs[:1])
    assert job.status is JobStatus.FAILED
    assert "not activated" in job.error


def test_batch_via_rest_api(batch_world):
    world, go, ep_a, ep_b, user, pairs = batch_world
    from repro.globusonline.interfaces import TransferAPI

    api = TransferAPI(go)
    out = api.submit_batch({
        "user": "alice@globusid",
        "source_endpoint": "alcf#dtn",
        "destination_endpoint": "nersc#dtn",
        "DATA": [{"source_path": s, "destination_path": d + ".api"}
                 for s, d in pairs[:5]],
    })
    assert out["code"] == "Accepted"
    status = api.task_status(out["task_id"])
    assert status["status"] == "SUCCEEDED"
    assert status["files"] == 5
    assert status["bytes_transferred"] == 5 * FILE_SIZE
