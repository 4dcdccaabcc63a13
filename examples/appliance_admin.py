#!/usr/bin/env python3
"""The GCMU virtual appliance (paper Section VIII future work, implemented).

A lab downloads the appliance image, boots it, and administers it
through the console: add users, check status, register on Globus Online
(with the packaged OAuth server advertised automatically), restart
services.  No PKI appears anywhere.

Run:  python examples/appliance_admin.py
"""

from repro import World
from repro.core.appliance import ApplianceImage
from repro.globusonline import GlobusOnline, TransferAPI
from repro.util.units import gbps


def main() -> None:
    world = World(seed=99, trace=True)
    net = world.network
    net.add_host("lab-vm", nic_bps=gbps(10))
    net.add_host("peer-vm", nic_bps=gbps(10))
    net.add_host("globusonline.org", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_router("campus")
    for h in ("lab-vm", "peer-vm", "globusonline.org", "laptop"):
        net.add_link(h, "campus", gbps(1), 0.01)

    print("== boot the appliance image on two hosts ==")
    image = ApplianceImage(site_name="biolab", with_oauth=True,
                           preloaded_users=(("pi", "lab-password"),))
    lab = image.boot(world, "lab-vm")
    peer = image.boot(world, "peer-vm")
    print(f"   image v{image.version}: booted on lab-vm and peer-vm "
          f"(independent CAs: "
          f"{lab.endpoint.myproxy.ca.certificate.fingerprint()[:8]} vs "
          f"{peer.endpoint.myproxy.ca.certificate.fingerprint()[:8]})")

    console = lab.console
    print("\n== admin console: add users, inspect status ==")
    print("   >", console.run("add-user grad1 s3cret"))
    print("   >", console.run("add-user grad2 pa55"))
    for line in console.run("status").splitlines():
        print("   ", line)

    print("\n== register both appliances on Globus Online ==")
    go = GlobusOnline(world, "globusonline.org")
    console.api_register(go, "biolab#lab")
    peer.console.api_register(go, "biolab#peer")
    api = TransferAPI(go)
    for ep in api.endpoint_list():
        print(f"   {ep['name']:<14} oauth={ep['oauth']}")

    print("\n== a user activates via the packaged OAuth and transfers ==")
    from repro.storage.data import LiteralData

    uid = lab.endpoint.accounts.get("grad1").uid
    lab.endpoint.storage.write_file("/home/grad1/results.csv",
                                    LiteralData(b"a,b\n1,2\n" * 1000), uid=uid)
    user = go.register_user("grad1@globusid")
    go.activate_oauth(user, "biolab#lab", "grad1", "s3cret")
    peer.console.run("add-user grad1 mirror-pw")
    go.activate_oauth(user, "biolab#peer", "grad1", "mirror-pw")
    job = go.submit_transfer(user, "biolab#lab", "/home/grad1/results.csv",
                             "biolab#peer", "/home/grad1/results.csv")
    print(f"   job {job.job_id}: {job.status.value}, "
          f"checksum verified={job.checksum_verified}")
    parties = {e.fields["party"] for e in world.log.select("credential.exposure")}
    print(f"   password exposure across the whole session: {sorted(parties)}")

    print("\n== service bounce survives ==")
    print("   >", console.run("restart-services"))
    print("   audit log:", console.audit_log)


if __name__ == "__main__":
    main()
