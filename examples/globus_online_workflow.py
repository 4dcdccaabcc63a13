#!/usr/bin/env python3
"""Globus Online: the Figure 6 and Figure 7 workflows.

Two GCMU endpoints register with the hosted service; a user activates
them (password first, OAuth second), submits a 50 GB transfer, and the
service survives a mid-transfer outage by re-authenticating with the
stored short-term certificate and restarting from the last checkpoint.

Run:  python examples/globus_online_workflow.py
"""

from repro import World
from repro.auth import AccountDatabase, Control, LdapDirectory, LdapPamModule, PamStack
from repro.core.gcmu import install_gcmu
from repro.globusonline import GlobusOnline, OAuthServer, TransferAPI, format_job_cli
from repro.scheduler import SchedulerConfig, jain_index
from repro.storage.data import SyntheticData
from repro.util.units import GB, fmt_bytes, gbps


def build_site(world, go, host, site_name, users, endpoint_name):
    accounts = AccountDatabase()
    ldap = LdapDirectory(base_dn=f"dc={site_name}")
    for username, password in users.items():
        accounts.add_user(username)
        ldap.add_entry(username, password)
    pam = PamStack().add(Control.SUFFICIENT, LdapPamModule(ldap))
    ep = install_gcmu(world, host, site_name, accounts, pam,
                      register_with=go, endpoint_name=endpoint_name,
                      charge_install_time=False)
    for username in users:
        ep.make_home(username)
    return ep


def main() -> None:
    world = World(seed=66, trace=True)
    net = world.network
    for h in ("dtn-a", "dtn-b", "globusonline.org"):
        net.add_host(h, nic_bps=gbps(10))
    inter = net.add_link("dtn-a", "dtn-b", gbps(10), 0.045, loss=1e-5)
    net.add_link("globusonline.org", "dtn-a", gbps(1), 0.02)
    net.add_link("globusonline.org", "dtn-b", gbps(1), 0.02)

    # one claim worker: dispatch order below is pure fair-share, no
    # wave-of-four interleaving to squint through.
    go = GlobusOnline(world, "globusonline.org",
                      scheduler_config=SchedulerConfig(workers=1))
    ep_a = build_site(world, go, "dtn-a", "alcf",
                      {"alice": "pwA", "bob": "pwC"}, "alcf#dtn")
    ep_b = build_site(world, go, "dtn-b", "nersc", {"asmith": "pwB"}, "nersc#dtn")

    uid = ep_a.accounts.get("alice").uid
    ep_a.storage.write_file("/home/alice/campaign.dat",
                            SyntheticData(seed=17, length=50 * GB), uid=uid)

    api = TransferAPI(go)
    print("registered endpoints:")
    for ep in api.endpoint_list():
        print(f"   {ep['name']:<12} {ep['gridftp']}")

    # -- Figure 6: password activation + fault-tolerant transfer --------------
    user = go.register_user("alice@globusid")
    go.activate(user, "alcf#dtn", "alice", "pwA")
    go.activate(user, "nersc#dtn", "asmith", "pwB")
    parties = {e.fields["party"] for e in world.log.select("credential.exposure")}
    print(f"\npassword-activation exposure: {sorted(parties)}")

    # an outage will strike 90 seconds into the transfer
    world.faults.cut_link(inter.link_id, at=world.now + 90.0, duration=45.0)

    print("\nsubmitting 50 GB transfer alcf#dtn -> nersc#dtn "
          "(an outage is scheduled mid-flight)...")
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/campaign.dat",
                             "nersc#dtn", "/home/asmith/campaign.dat")
    print(format_job_cli(job))
    print(f"checkpoint at interruption: {fmt_bytes(job.bytes_at_checkpoint)} "
          f"(only the remainder was re-sent)")

    dest = ep_b.storage.open_read("/home/asmith/campaign.dat",
                                  ep_b.accounts.get("asmith").uid)
    ok = dest.fingerprint() == SyntheticData(seed=17, length=50 * GB).fingerprint()
    print(f"destination verified: {ok}")

    # -- Figure 7: the OAuth alternative ----------------------------------------
    print("\n== Figure 7: OAuth activation ==")
    oauth = OAuthServer(world, "dtn-a", ep_a.myproxy, port=8443).start()
    go.attach_oauth("alcf#dtn", oauth)
    world.log.clear()
    go.activate_oauth(user, "alcf#dtn", "alice", "pwA")
    parties = {e.fields["party"] for e in world.log.select("credential.exposure")}
    print(f"OAuth-activation exposure: {sorted(parties)} "
          "(the password never touched globusonline.org)")

    # -- Multi-user contention: fair-share in action ----------------------------
    # Alice (weight 3) and Bob (weight 1) each queue four 2 GB transfers
    # against the same single-worker fleet.  The scheduler interleaves
    # claims so delivered bytes track the 3:1 weights while the backlog
    # drains — not submission order.
    print("\n== Fleet scheduler: two users contending 3:1 ==")
    bob = go.register_user("bob@globusid")
    go.activate(bob, "alcf#dtn", "bob", "pwC")
    go.activate(bob, "nersc#dtn", "asmith", "pwB")
    go.set_fair_share(user, 3.0)
    go.set_fair_share(bob, 1.0)

    uid_bob = ep_a.accounts.get("bob").uid
    before = dict(go.scheduler.queue.delivered_bytes())
    tasks_before = len(go.scheduler.completed_tasks)
    for i in range(4):
        ep_a.storage.write_file(f"/home/alice/part{i}.dat",
                                SyntheticData(seed=100 + i, length=2 * GB), uid=uid)
        ep_a.storage.write_file(f"/home/bob/part{i}.dat",
                                SyntheticData(seed=200 + i, length=2 * GB),
                                uid=uid_bob)
    jobs = []
    for i in range(4):
        jobs.append(go.submit_transfer(
            user, "alcf#dtn", f"/home/alice/part{i}.dat",
            "nersc#dtn", f"/home/asmith/a-part{i}.dat", defer=True))
        jobs.append(go.submit_transfer(
            bob, "alcf#dtn", f"/home/bob/part{i}.dat",
            "nersc#dtn", f"/home/asmith/b-part{i}.dat", defer=True))
    print(f"queued {len(jobs)} deferred jobs "
          f"(queue depth {len(go.scheduler.queue)}); draining...")
    go.process_queue()

    order = [t.user.split("@")[0]
             for t in go.scheduler.completed_tasks[tasks_before:]]
    print(f"completion order: {' '.join(order)}")
    delivered = {
        name: nbytes - before.get(name, 0)
        for name, nbytes in go.scheduler.queue.delivered_bytes().items()
    }
    for name, nbytes in sorted(delivered.items()):
        print(f"   {name:<16} delivered {fmt_bytes(nbytes)}")
    print(f"all succeeded: {all(j.status.value == 'succeeded' for j in jobs)}; "
          f"Jain fairness index {jain_index(delivered.values()):.3f}")


if __name__ == "__main__":
    main()
