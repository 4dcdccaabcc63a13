"""FIG7 — Figure 7: the OAuth variant of endpoint activation.

Side-by-side credential-exposure accounting: with plain activation the
user's site password transits Globus Online; with a site OAuth server it
is entered only on the site's own page.  Both paths must end in a usable
short-term certificate (proved by running a transfer after each).
"""

from benchmarks._harness import report, run_once
from repro.globusonline.oauth import OAuthServer
from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.metrics.report import render_table
from repro.scenarios import gcmu_site
from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.util.units import MB, gbps


def run_fig7():
    world = World(seed=7, trace=True)
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.03, loss=1e-6)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)

    go = GlobusOnline(world, "saas")
    ep_a = gcmu_site(world, "dtn-a", "alcf", {"alice": "pwA"},
                     register_with=go, endpoint_name="alcf#dtn")
    ep_b = gcmu_site(world, "dtn-b", "nersc", {"asmith": "pwB"},
                     register_with=go, endpoint_name="nersc#dtn")
    uid = ep_a.accounts.get("alice").uid
    ep_a.storage.write_file("/home/alice/f.dat", LiteralData(b"d" * MB), uid=uid)
    user = go.register_user("alice@globusid")
    go.activate(user, "nersc#dtn", "asmith", "pwB")  # dest, password path

    results = []

    # -- path 1: password activation (Figure 6 style) -----------------------
    world.log.clear()
    go.activate(user, "alcf#dtn", "alice", "pwA")
    parties_pw = sorted({e.fields["party"]
                         for e in world.log.select("credential.exposure")
                         if e.fields.get("username") == "alice"})
    job1 = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                              "nersc#dtn", "/home/asmith/f1.dat")
    results.append(("password (web form on Globus Online)", parties_pw,
                    job1.status is JobStatus.SUCCEEDED))

    # -- path 2: OAuth activation (Figure 7) ------------------------------------
    oauth = OAuthServer(world, "dtn-a", ep_a.myproxy, port=8443).start()
    go.attach_oauth("alcf#dtn", oauth)
    world.log.clear()
    go.activate_oauth(user, "alcf#dtn", "alice", "pwA")
    parties_oauth = sorted({e.fields["party"]
                            for e in world.log.select("credential.exposure")
                            if e.fields.get("username") == "alice"})
    job2 = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                              "nersc#dtn", "/home/asmith/f2.dat")
    results.append(("OAuth (redirect to the site's own page)", parties_oauth,
                    job2.status is JobStatus.SUCCEEDED))
    return results


def test_fig7_oauth_keeps_password_at_site(benchmark):
    results = run_once(benchmark, run_fig7)
    rows = [[label, ", ".join(parties), "yes" if ok else "NO"]
            for label, parties, ok in results]
    report("fig7_oauth", render_table(
        "Figure 7 (reproduced): who observes the user's site password?",
        ["activation method", "parties that saw the password", "transfer works"],
        rows,
    ))
    password_parties = results[0][1]
    oauth_parties = results[1][1]
    assert "globusonline" in password_parties
    assert oauth_parties == ["site:alcf"]  # site only — the Figure 7 win
    assert all(ok for *_, ok in results)
