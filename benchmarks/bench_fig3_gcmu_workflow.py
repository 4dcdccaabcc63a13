"""FIG3 — Figure 3: the GCMU workflow.

Walks the five numbered steps — (1) user presents username/password to
MyProxy Online CA, (2) PAM checks the local authentication system,
(3) a short-lived certificate with the username in its DN is issued,
(4) the user authenticates to GridFTP with it, (5) the AUTHZ callout
parses the username from the DN and local authorization (setuid) runs —
and reports what each step produced, plus the failure paths (bad
password, locked account).
"""


from benchmarks._harness import report, run_once
from repro.errors import AuthenticationError
from repro.gridftp.client import GridFTPClient
from repro.metrics.report import render_table
from repro.myproxy.client import myproxy_logon
from repro.pki.validation import TrustStore
from repro.scenarios import gcmu_site
from repro.sim.world import World
from repro.util.units import fmt_duration, gbps


def run_fig3():
    world = World(seed=3, trace=True)
    net = world.network
    net.add_host("dtn", nic_bps=gbps(10))
    net.add_host("laptop", nic_bps=gbps(1))
    net.add_link("dtn", "laptop", gbps(1), 0.01)
    ep = gcmu_site(world, "dtn", "siteX", {"alice": "pwA", "bob": "pwB"})

    steps = []
    trust = TrustStore()

    # steps 1-3: password -> PAM -> short-lived certificate
    t0 = world.now
    cred = myproxy_logon(world, "laptop", ep.myproxy, "alice", "pwA", trust=trust)
    steps.append(("1-3", "myproxy-logon (password via PAM -> certificate)",
                  f"subject={cred.subject}", world.now - t0))

    # step 4: GSI authentication to the GridFTP server
    t0 = world.now
    client = GridFTPClient(world, "laptop", credential=cred, trust=trust)
    session = client.connect(ep.server, login=False)
    session.login()
    steps.append(("4", "GSI authentication to GridFTP",
                  f"peer identity accepted", world.now - t0))

    # step 5: authorization — username parsed from the DN, setuid
    authz_event = world.log.select("gridftp.authz.ok")[-1]
    steps.append(("5", "AUTHZ callout + local authorization",
                  f"local user={authz_event.fields['local_user']} "
                  f"via {authz_event.fields['callout']}", 0.0))

    # failure paths
    failures = []
    try:
        myproxy_logon(world, "laptop", ep.myproxy, "alice", "wrong")
    except AuthenticationError as exc:
        failures.append(("bad password", "rejected at step 2", str(exc)[:50]))
    ep.accounts.lock("bob")
    cred_b = myproxy_logon(world, "laptop", ep.myproxy, "bob", "pwB", trust=trust)
    try:
        GridFTPClient(world, "laptop", credential=cred_b, trust=trust).connect(ep.server)
    except AuthenticationError as exc:
        failures.append(("locked account", "rejected at step 5", str(exc)[:50]))

    mapped_user = session.logged_in_as
    return steps, failures, mapped_user, ep


def test_fig3_gcmu_workflow(benchmark):
    steps, failures, mapped_user, ep = run_once(benchmark, run_fig3)
    rows = [[s, desc, outcome, fmt_duration(dt) if dt else "-"]
            for s, desc, outcome, dt in steps]
    txt = render_table(
        "Figure 3 (reproduced): the GCMU workflow, step by step",
        ["step", "action", "outcome", "virtual time"],
        rows,
    )
    txt += "\n\n" + render_table(
        "Failure paths",
        ["scenario", "where it stops", "error"],
        [list(f) for f in failures],
    )
    report("fig3_gcmu_workflow", txt)

    assert mapped_user == "alice"
    assert len(failures) == 2
    # the whole happy path took seconds of virtual time, not days
    assert sum(dt for *_, dt in steps) < 30.0
    # and no gridmap exists anywhere in the deployment
    assert ep.server.authz.name == "gcmu-myproxy-dn"
