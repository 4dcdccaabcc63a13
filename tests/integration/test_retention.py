"""What a finished job or logon leaves behind.

A hosted service keeps running jobs and logons; once one is done it
should keep the record and nothing its work needed.  Each test pins a
thing the simulator used to keep: a finished task's closures, one path
cache entry per file, whole rng-state tuples in the key-generation memo,
closed or refused control-channel sessions on their server, a
``children`` dict per file, a copy of each synthetic source per
destination, and an empty checkpoint per job.  One more checks that a
memo hit, replayed from packed states, still leaves the rng where a full
key generation does.
"""

import gc
import random
import weakref

import pytest

from repro.errors import AuthenticationError, NotADirectoryStorageError
from repro.globusonline.transfer import JobStatus
from repro.gridftp.client import GridFTPClient
from repro.pki import rsa
from repro.pki.validation import TrustStore
from repro.sim.clock import Clock
from repro.storage import posix
from repro.storage.data import LiteralData
from repro.storage.posix import PosixStorage
from repro.util import memo, opcount
from repro.util.memo import Memo
from repro.util.units import MB
from tests.globusonline.test_fleet_scheduling import activate, build, write_src


def test_a_finished_task_lets_go_of_what_its_work_held(world):
    go, ep_a, _ = build(world)
    write_src(ep_a, "/home/alice/f.dat", 16 * MB)
    user = activate(go)
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                             "nersc#dtn", "/home/asmith/f.dat", defer=True)
    (task,) = go.scheduler.queue.tasks()
    # the closures over the job, the user and the service; the task is
    # the only holder of each
    closures = [weakref.ref(f) for f in
                (task.execute, task.measure, task.on_claim, task.on_requeue)]
    go.process_queue()
    gc.collect()
    assert job.status is JobStatus.SUCCEEDED
    assert go.scheduler.completed_tasks == (task,)
    assert [ref() for ref in closures] == [None] * 4


def test_files_in_one_directory_share_one_cache_entry():
    fs = PosixStorage(Clock())
    fs.makedirs("/home/alice/d", 0)
    fs.chown("/home/alice", 1000)
    fs.chown("/home/alice/d", 1000)
    names = [f"/home/alice/d/f{i}" for i in range(1000)]
    for name in names:
        fs.write_file(name, b"x", uid=1000)
    for uid in (0, 1000):
        for name in names:
            fs.stat(name, uid)
            fs.exists(name)
    # three directories, two uids, check_exec on or off: at most one
    # cached resolution each, however many files were resolved
    cached = sum(len(v) for v in vars(fs).values() if isinstance(v, dict))
    assert cached <= 3 * 2 * 2


def test_a_keygen_memo_hit_restores_a_full_generations_state(cache_on, monkeypatch):
    monkeypatch.setattr(rsa, "_KEYGEN_MEMO", Memo("rsa.keygen", 256))
    rng = random.Random(20120521)
    rng.gauss(0.0, 1.0)  # leaves gauss_next set
    version, words, gauss_next = rng.getstate()
    # the same Mersenne Twister words with and without a pending gauss,
    # and with the stream's index one word further along
    further = words[:-1] + (words[-1] + 1,)
    states = [(version, words, gauss_next), (version, words, None), (version, further, None)]

    def generate(state):
        rng = random.Random()
        rng.setstate(state)
        pair = rsa.generate_keypair(128, rng)
        return (pair.n, pair.d), rng.getstate()

    monkeypatch.setattr(memo, "_enabled", False)  # REPRO_NO_SESSION_CACHE=1
    full = [generate(state) for state in states]
    monkeypatch.setattr(memo, "_enabled", True)
    before = opcount.snapshot()
    for _ in range(2):
        assert [generate(state) for state in states] == full
    assert opcount.since(before) == {"rsa.keygen.full": 3, "rsa.keygen.memo": 3}


def _int_tuples(value):
    """Every tuple of ints reachable through tuples from ``value``."""
    if isinstance(value, tuple):
        if value and all(isinstance(x, int) for x in value):
            yield value
        for item in value:
            yield from _int_tuples(item)


def test_a_keygen_memo_entry_holds_no_tuple_of_ints(cache_on, monkeypatch):
    memo = Memo("rsa.keygen", 256)
    monkeypatch.setattr(rsa, "_KEYGEN_MEMO", memo)
    rsa.generate_keypair(128, random.Random(20120521))
    ((key, value),) = memo._entries.items()
    assert list(_int_tuples(key)) == []
    assert list(_int_tuples(value)) == []


def test_a_closed_session_leaves_its_server(simple_pair):
    world, site, _ = simple_pair
    session = site.client_for(world, "alice", "laptop").connect(site.server)
    server_session = session.server_session
    assert server_session in site.server.sessions
    session.quit()
    assert server_session.closed
    assert server_session not in site.server.sessions


def test_a_refused_login_leaves_no_session_on_its_server(simple_pair):
    world, site, laptop = simple_pair
    # the client cannot validate the server's chain: no trust anchor
    stranger = GridFTPClient(world, laptop, credential=site.proxy_for(world, "alice"),
                             trust=TrustStore(), username="alice")
    # the server maps the client to no account
    alice = site.client_for(world, "alice", laptop)
    with pytest.raises(AuthenticationError):
        stranger.connect(site.server)
    with pytest.raises(AuthenticationError):
        alice.connect(site.server, username="nobody")
    assert site.server.sessions == {}


def test_a_failed_adat_closes_its_session(simple_pair):
    world, site, laptop = simple_pair
    session = site.server.open_session(laptop)
    session.handle("AUTH GSSAPI")
    (reply,) = session.handle("ADAT bm90IGEgY2hhaW4=")
    assert reply.startswith("535 ")
    assert session.closed
    assert site.server.sessions == {}


def test_every_file_shares_one_read_only_empty_children_mapping():
    fs = PosixStorage(Clock())
    fs.write_file("/d/f", b"x")
    fs.write_file("/d/g", b"y")
    f, g = fs._walk("/d/f", 0), fs._walk("/d/g", 0)
    assert f.children is g.children is posix._NO_CHILDREN
    assert not f.is_dir and fs._walk("/d", 0).is_dir
    with pytest.raises(TypeError):
        f.children["x"] = f
    with pytest.raises(NotADirectoryStorageError):
        fs.commit_file("/d/f/x", 0, LiteralData(b"z"))
    with pytest.raises(NotADirectoryStorageError):
        fs.mkdir("/d/f/e", 0)
    assert fs.listdir("/d", 0) == ["f", "g"]


def test_a_fault_free_synthetic_job_keeps_no_copy_and_no_checkpoint(world):
    go, ep_a, ep_b = build(world)
    write_src(ep_a, "/home/alice/f.dat", 16 * MB)
    user = activate(go)
    job = go.submit_transfer(user, "alcf#dtn", "/home/alice/f.dat",
                             "nersc#dtn", "/home/asmith/f.dat", defer=True)
    go.process_queue()
    assert job.status is JobStatus.SUCCEEDED
    source = ep_a.storage._walk("/home/alice/f.dat", 0).data
    assert ep_b.storage._walk("/home/asmith/f.dat", 0).data is source
    assert job.faults_survived == 0
    assert job.checkpoint is None
    assert job.bytes_at_checkpoint == 0
