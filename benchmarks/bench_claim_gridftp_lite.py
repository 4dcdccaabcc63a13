"""CLAIM-LITE — Section III.B: GridFTP-Lite's three limitations, each
demonstrated as an actual behaviour, next to GCMU which has none of them.

1. the data channel has no security;
2. SSH cannot delegate, so hand-off to Globus Online fails;
3. the striped server's internal PI->DTP channel is unsecured.
"""

from benchmarks._harness import report, run_once
from repro.auth.accounts import AccountDatabase
from repro.baselines.gridftp_lite import GridFTPLite
from repro.errors import DCAUError, DelegationError
from repro.gsi.delegation import delegate_credential
from repro.gridftp.transfer import TransferOptions
from repro.metrics.report import render_table
from repro.myproxy.client import myproxy_logon
from repro.pki.validation import TrustStore
from repro.scenarios import gcmu_site
from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.storage.posix import PosixStorage
from repro.util.units import MB, gbps
from repro.xio.drivers import Protection


def run_claim_lite():
    world = World(seed=15, trace=True)
    net = world.network
    for h in ("lite-host", "lite-dtp", "gcmu-host", "laptop"):
        net.add_host(h, nic_bps=gbps(10))
    net.add_router("lan")
    for h in ("lite-host", "lite-dtp", "gcmu-host", "laptop"):
        net.add_link(h, "lan", gbps(1), 0.005)

    # -- GridFTP-Lite deployment -------------------------------------------
    accounts = AccountDatabase()
    accounts.add_user("alice")
    fs = PosixStorage(world.clock)
    fs.makedirs("/home/alice", 0)
    fs.chown("/home/alice", accounts.get("alice").uid)
    fs.write_file("/home/alice/d.bin", LiteralData(b"x" * MB),
                  uid=accounts.get("alice").uid)
    lite = GridFTPLite(world, "lite-host", accounts, fs,
                       stripe_hosts=("lite-host", "lite-dtp"))
    lite.add_ssh_user("alice", "ssh-pw")
    session = lite.ssh_login("laptop", "alice", "ssh-pw")

    rows = []

    # limitation 1: data channel security
    local = PosixStorage(world.clock)
    local.makedirs("/tmp", 0)
    try:
        session.get("/home/alice/d.bin", local, "/tmp/d.bin",
                    TransferOptions(protection=Protection.PRIVATE))
        lite_protected = "accepted (?!)"
    except DCAUError:
        lite_protected = "REFUSED: no data channel security"
    rows.append(["1. protect the data channel", lite_protected, "works (PROT P)"])

    # limitation 2: delegation / Globus Online hand-off
    try:
        session.delegate()
        lite_delegation = "delegated (?!)"
    except DelegationError:
        lite_delegation = "FAILED: SSH cannot delegate"
    rows.append(["2. hand off to Globus Online", lite_delegation,
                 "works (proxy delegation)"])

    # limitation 3: striped internal channel
    lite.internal_message("lite-dtp", "serve stripe 1")
    lite_internal = world.log.select("gridftp.striped.internal")[-1].fields["secure"]
    rows.append(["3. secure PI->DTP internal channel",
                 "insecure" if not lite_internal else "secure (?!)",
                 "secure"])

    # -- GCMU does all three ---------------------------------------------------
    ep = gcmu_site(world, "gcmu-host", "site", {"alice": "pw"})
    uid = ep.accounts.get("alice").uid
    ep.storage.write_file("/home/alice/d.bin", LiteralData(b"y" * MB), uid=uid)
    trust = TrustStore()
    cred = myproxy_logon(world, "laptop", ep.myproxy, "alice", "pw", trust=trust)
    from repro.gridftp.client import GridFTPClient

    local2 = PosixStorage(world.clock)
    local2.makedirs("/tmp", 0)
    client = GridFTPClient(world, "laptop", credential=cred, trust=trust,
                           local_storage=local2)
    gcmu_session = client.connect(ep.server)
    res = gcmu_session.get("/home/alice/d.bin", "/tmp/d.bin",
                           TransferOptions(protection=Protection.PRIVATE))
    delegated = delegate_credential(cred, world.clock, world.rng.python("d"))
    return rows, res.verified, delegated.identity == cred.identity


def test_claim_gridftp_lite_limitations(benchmark):
    rows, gcmu_protected_ok, gcmu_delegates = run_once(benchmark, run_claim_lite)
    report("claim_gridftp_lite", render_table(
        "CLAIM-LITE (reproduced): GridFTP-Lite's Section III.B limitations "
        "vs GCMU",
        ["capability", "GridFTP-Lite", "GCMU"],
        rows,
    ))
    assert rows[0][1].startswith("REFUSED")
    assert rows[1][1].startswith("FAILED")
    assert rows[2][1] == "insecure"
    assert gcmu_protected_ok and gcmu_delegates
