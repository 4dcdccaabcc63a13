"""FIG6 — Figure 6: Globus Online / GCMU interaction.

The full hosted-service story: endpoint registration, password
activation (the credential-exposure trail), a 100 GB transfer with an
injected mid-transfer outage, automatic re-authentication with the
stored short-term certificate, and checkpoint restart.  Compares the
bytes re-sent against a restart-from-zero strawman.
"""

from benchmarks._harness import report, run_once
from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.metrics.report import render_table
from repro.scenarios import gcmu_site
from repro.sim.world import World
from repro.storage.data import SyntheticData
from repro.util.units import GB, fmt_bytes, fmt_duration, gbps

PAYLOAD = 100 * GB


def run_fig6():
    world = World(seed=6, trace=True)
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    inter = net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-6)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)

    go = GlobusOnline(world, "saas")
    ep_a = gcmu_site(world, "dtn-a", "alcf", {"alice": "pwA"},
                     register_with=go, endpoint_name="alcf#dtn")
    ep_b = gcmu_site(world, "dtn-b", "nersc", {"asmith": "pwB"},
                     register_with=go, endpoint_name="nersc#dtn")
    uid = ep_a.accounts.get("alice").uid
    data = SyntheticData(seed=60, length=PAYLOAD)
    ep_a.storage.write_file("/home/alice/archive.dat", data, uid=uid)

    user = go.register_user("alice@globusid")
    go.activate(user, "alcf#dtn", "alice", "pwA")
    go.activate(user, "nersc#dtn", "asmith", "pwB")
    exposure = sorted({e.fields["party"]
                       for e in world.log.select("credential.exposure")})

    # the outage strikes ~40% into the transfer
    world.faults.cut_link(inter.link_id, at=world.now + 60.0, duration=90.0)
    t0 = world.now
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/archive.dat",
                             "nersc#dtn", "/home/asmith/archive.dat")
    elapsed = world.now - t0

    uid_b = ep_b.accounts.get("asmith").uid
    dest_ok = (ep_b.storage.open_read("/home/asmith/archive.dat", uid_b)
               .fingerprint() == data.fingerprint())
    resent = job.result.nbytes - (PAYLOAD - job.bytes_at_checkpoint)
    return job, elapsed, exposure, dest_ok, resent


def test_fig6_globus_online_fault_recovery(benchmark):
    job, elapsed, exposure, dest_ok, resent = run_once(benchmark, run_fig6)
    checkpoint = job.bytes_at_checkpoint
    rows = [
        ["job status", job.status.value.upper()],
        ["attempts (re-auth per retry)", job.attempts],
        ["faults survived", job.faults_survived],
        ["checkpoint at interruption", fmt_bytes(checkpoint)],
        ["bytes moved on retry", fmt_bytes(PAYLOAD - checkpoint)],
        ["bytes saved vs restart-from-zero", fmt_bytes(checkpoint)],
        ["total elapsed (virtual)", fmt_duration(elapsed)],
        ["destination verified", dest_ok],
        ["password exposure during activation", ", ".join(exposure)],
    ]
    report("fig6_globus_online", render_table(
        f"Figure 6 (reproduced): {PAYLOAD // GB} GB Globus Online transfer "
        "with a mid-flight outage",
        ["metric", "value"],
        rows,
    ))
    assert job.status is JobStatus.SUCCEEDED
    assert job.faults_survived == 1
    assert dest_ok
    assert checkpoint > 0.1 * PAYLOAD  # the checkpoint saved real work
    assert "globusonline" in exposure  # Figure 6 path: GO sees the password
