"""Globus Online through the fleet scheduler: queueing, admission, batching."""

import pytest

from repro.errors import QueueFullError, QuotaExceededError
from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.scheduler import SchedulerConfig, SchedulerLimits
from repro.storage.data import SyntheticData
from repro.util.units import HOUR, MB, gbps
from tests.conftest import make_gcmu_site


def build(world, scheduler_config=None):
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "saas", scheduler_config=scheduler_config)
    ep_a = make_gcmu_site(world, "dtn-a", "alcf", {"alice": "pwA", "bob": "pwB"},
                          register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_gcmu_site(world, "dtn-b", "nersc", {"asmith": "pwC"},
                          register_with=go, endpoint_name="nersc#dtn")
    return go, ep_a, ep_b


def write_src(ep, path, length, owner="alice", seed=9):
    uid = ep.accounts.get(owner).uid
    ep.storage.write_file(path, SyntheticData(seed=seed, length=length), uid=uid)


def activate(go, name="alice@globusid", site_user="alice", pw="pwA",
             lifetime_s=None):
    user = go.register_user(name)
    go.activate(user, "alcf#dtn", site_user, pw, lifetime_s=lifetime_s)
    go.activate(user, "nersc#dtn", "asmith", "pwC", lifetime_s=lifetime_s)
    return user


def test_deferred_submission_stays_queued_until_processed(world):
    go, ep_a, _ = build(world)
    write_src(ep_a, "/home/alice/f.dat", 16 * MB)
    user = activate(go)
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                             "nersc#dtn", "/home/asmith/f.dat", defer=True)
    assert job.status is JobStatus.QUEUED
    assert go.job_status(job.job_id) is JobStatus.QUEUED
    go.process_queue()
    assert job.status is JobStatus.SUCCEEDED
    assert job.checksum_verified


def test_synchronous_submission_unchanged(world):
    go, ep_a, ep_b = build(world)
    write_src(ep_a, "/home/alice/f.dat", 16 * MB)
    user = activate(go)
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                             "nersc#dtn", "/home/asmith/f.dat")
    assert job.status is JobStatus.SUCCEEDED
    uid = ep_b.accounts.get("asmith").uid
    src = ep_a.storage.open_read("/home/alice/f.dat", 0)
    dst = ep_b.storage.open_read("/home/asmith/f.dat", uid)
    assert src.fingerprint() == dst.fingerprint()


@pytest.mark.traced
def test_activation_expiring_mid_queue_is_a_typed_failure(world):
    go, ep_a, _ = build(world)
    write_src(ep_a, "/home/alice/f.dat", 16 * MB)
    user = activate(go, lifetime_s=1 * HOUR)
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                             "nersc#dtn", "/home/asmith/f.dat", defer=True)
    world.advance(2 * HOUR)  # activation lapses while the job waits
    go.process_queue()
    assert job.status is JobStatus.FAILED
    assert job.needs_reactivation
    assert "re-activate" in job.error
    events = world.log.select("globusonline.job.reactivation_required")
    assert events and events[0].fields["job"] == job.job_id
    # re-activation clears the path for a resubmission
    go.activate(user, "alcf#dtn", "alice", "pwA")
    go.activate(user, "nersc#dtn", "asmith", "pwC")
    retry = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                               "nersc#dtn", "/home/asmith/f.dat")
    assert retry.status is JobStatus.SUCCEEDED


def test_queue_full_raises_typed_admission_error(world):
    go, ep_a, _ = build(world, SchedulerConfig(
        limits=SchedulerLimits(max_queue_depth=2)))
    write_src(ep_a, "/home/alice/f.dat", 16 * MB)
    user = activate(go)
    for _ in range(2):
        go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                           "nersc#dtn", "/home/asmith/f.dat", defer=True)
    with pytest.raises(QueueFullError) as exc_info:
        go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                           "nersc#dtn", "/home/asmith/f.dat", defer=True)
    assert exc_info.value.retry_after_s > 0
    # the rejected job never entered the registry
    assert len(go.jobs) == 2


def test_per_user_quota(world):
    go, ep_a, _ = build(world, SchedulerConfig(
        limits=SchedulerLimits(max_queued_per_user=1)))
    write_src(ep_a, "/home/alice/f.dat", 16 * MB)
    user = activate(go)
    go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                       "nersc#dtn", "/home/asmith/f.dat", defer=True)
    with pytest.raises(QuotaExceededError) as exc_info:
        go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                           "nersc#dtn", "/home/asmith/f2.dat", defer=True)
    assert exc_info.value.user == "alice@globusid"


def test_small_files_coalesce_into_one_batch(world):
    go, ep_a, ep_b = build(world)
    user = activate(go)
    for i in range(5):
        write_src(ep_a, f"/home/alice/s{i}.dat", 200_000, seed=i)
    jobs = [
        go.submit_transfer(user, "alcf#dtn", f"/home/alice/s{i}.dat",
                           "nersc#dtn", f"/home/asmith/s{i}.dat", defer=True)
        for i in range(5)
    ]
    go.process_queue()
    assert all(j.status is JobStatus.SUCCEEDED for j in jobs)
    batches = [j for j in go.jobs.values() if j.job_id.startswith("go-batch")]
    assert len(batches) == 1 and batches[0].files_done == 5
    assert world.metrics.counter("scheduler_batches_coalesced_total").value() == 1
    assert world.metrics.counter("scheduler_batched_files_total").value() == 5
    # bytes landed intact
    uid = ep_b.accounts.get("asmith").uid
    for i in range(5):
        src = ep_a.storage.open_read(f"/home/alice/s{i}.dat", 0)
        dst = ep_b.storage.open_read(f"/home/asmith/s{i}.dat", uid)
        assert src.fingerprint() == dst.fingerprint()


def test_large_files_never_coalesce(world):
    go, ep_a, _ = build(world)
    user = activate(go)
    for i in range(3):
        write_src(ep_a, f"/home/alice/big{i}.dat", 16 * MB, seed=i)
    jobs = [
        go.submit_transfer(user, "alcf#dtn", f"/home/alice/big{i}.dat",
                           "nersc#dtn", f"/home/asmith/big{i}.dat", defer=True)
        for i in range(3)
    ]
    go.process_queue()
    assert all(j.status is JobStatus.SUCCEEDED for j in jobs)
    assert all(j.checksum_verified for j in jobs)
    assert not [j for j in go.jobs.values() if j.job_id.startswith("go-batch")]


def test_fair_share_across_contending_users(world):
    go, ep_a, _ = build(world, SchedulerConfig(workers=1))
    alice = activate(go, "alice@globusid", "alice", "pwA")
    bob = go.register_user("bob@globusid")
    go.activate(bob, "alcf#dtn", "bob", "pwB")
    go.activate(bob, "nersc#dtn", "asmith", "pwC")
    go.set_fair_share(alice, 3.0)
    go.set_fair_share("bob@globusid", 1.0)
    for i in range(4):
        write_src(ep_a, f"/home/alice/a{i}.dat", 16 * MB, owner="alice", seed=i)
        write_src(ep_a, f"/home/bob/b{i}.dat", 16 * MB, owner="bob", seed=10 + i)
    jobs = []
    for i in range(4):
        jobs.append(go.submit_transfer(
            alice, "alcf#dtn", f"/home/alice/a{i}.dat",
            "nersc#dtn", f"/home/asmith/a{i}.dat", defer=True))
        jobs.append(go.submit_transfer(
            bob, "alcf#dtn", f"/home/bob/b{i}.dat",
            "nersc#dtn", f"/home/asmith/b{i}.dat", defer=True))
    go.process_queue()
    assert all(j.status is JobStatus.SUCCEEDED for j in jobs)
    delivered = go.scheduler.queue.delivered_bytes()
    assert delivered["alice@globusid"] == delivered["bob@globusid"]  # all drained
    # under contention alice (weight 3) finished her last job before bob:
    # completion order favours the heavier weight early on.
    order = [t.user for t in go.scheduler.completed_tasks]
    first_half = order[: len(order) // 2]
    assert first_half.count("alice@globusid") > first_half.count("bob@globusid")


def test_job_status_reports_queue_states(world):
    go, ep_a, _ = build(world)
    write_src(ep_a, "/home/alice/f.dat", 16 * MB)
    user = activate(go)
    seen = []
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                             "nersc#dtn", "/home/asmith/f.dat", defer=True)
    seen.append(go.job_status(job.job_id))
    go.process_queue()
    seen.append(go.job_status(job.job_id))
    assert seen == [JobStatus.QUEUED, JobStatus.SUCCEEDED]
