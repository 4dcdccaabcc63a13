"""One lying endpoint fails its own jobs, not the Globus Online queue.

One endpoint's server answers PASV with no address, SIZE with text that
is not a number, or FEAT or STOR with no line at all.  The client raises
``ProtocolError`` for a reply it cannot parse, so the drain finishes: the
single-file and batch jobs that touch the liar end FAILED with that
error, and a job between two honest endpoints in the same drain ends
SUCCEEDED.
"""

import pytest

from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.gridftp import server as gridftp_server
from repro.storage.data import SyntheticData
from repro.util.units import MB, gbps
from tests.conftest import make_gcmu_site

#: verb -> (the liar's reply lines, whether the liar is the jobs' source, the jobs' error)
LIES = {
    "PASV": (["227 Entering Passive Mode"], False,
             "unparseable reply to PASV: '227 Entering Passive Mode'"),
    "SIZE": (["213 many"], True, "unparseable reply to SIZE: '213 many'"),
    "FEAT": ([], False, "no reply to 'FEAT'"),  # jobs ask the destination for DCSC
    "STOR": ([], False, "no reply to 'STOR /home/liz/"),  # batch jobs pipeline it
}
SITES = (  # host, site, endpoint, account, password
    ("dtn-a", "alcf", "alcf#dtn", "alice", "pwA"),
    ("dtn-b", "nersc", "nersc#dtn", "asmith", "pwB"),
    ("dtn-l", "lying", "lying#dtn", "liz", "pwL"),
)


def _lie(monkeypatch, server, verb):
    """Make ``server``, and no other, answer ``verb`` with its lie."""
    honest = gridftp_server._HANDLERS[verb]

    def handler(session, arg):
        if session.server is server:
            return list(LIES[verb][0])
        return honest(session, arg)

    monkeypatch.setitem(gridftp_server._HANDLERS, verb, handler)


@pytest.mark.parametrize("verb", sorted(LIES))
def test_unparseable_reply_fails_only_the_liars_jobs(world, monkeypatch, verb):
    net = world.network
    net.add_router("core")
    for host in ("saas", *(site[0] for site in SITES)):
        net.add_host(host, nic_bps=gbps(10))
        net.add_link(host, "core", gbps(10), 0.01)
    go = GlobusOnline(world, "saas")
    endpoints = {
        name: make_gcmu_site(world, host, site, {account: pw},
                             register_with=go, endpoint_name=name)
        for host, site, name, account, pw in SITES
    }
    user = go.register_user("alice@globusid")
    homes = {}
    for _, _, name, account, pw in SITES:
        go.activate(user, name, account, pw)
        uid = endpoints[name].accounts.get(account).uid
        homes[name] = f"/home/{account}"
        for i in range(3):
            endpoints[name].storage.write_file(
                f"/home/{account}/f{i}.dat", SyntheticData(seed=i, length=16 * MB), uid=uid
            )
    _lie(monkeypatch, endpoints["lying#dtn"].server, verb)

    liar_is_source = LIES[verb][1]
    src, dst = ("lying#dtn", "nersc#dtn") if liar_is_source else ("alcf#dtn", "lying#dtn")
    single = go.submit_transfer(user, src, f"{homes[src]}/f0.dat",
                                dst, f"{homes[dst]}/single.dat", defer=True)
    batch = go.submit_batch_transfer(
        user, src, dst,
        [(f"{homes[src]}/f{i}.dat", f"{homes[dst]}/batch{i}.dat") for i in (1, 2)],
        defer=True,
    )
    honest = go.submit_transfer(user, "alcf#dtn", "/home/alice/f0.dat",
                                "nersc#dtn", "/home/asmith/honest.dat", defer=True)

    go.process_queue()

    for job in (single, batch):
        assert job.status is JobStatus.FAILED
        assert LIES[verb][2] in job.error
    assert honest.status is JobStatus.SUCCEEDED
    assert honest.checksum_verified
