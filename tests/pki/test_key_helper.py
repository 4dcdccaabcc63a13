"""The forked key-search helpers change when keys are searched, never which.

``KeyHelper`` searches a CA's key stream in a child process, and
``generate_keypair`` takes a key from it only for the exact (bits, rng
state) it would search from, waiting only while the helper searches
exactly that key and gets a CPU; ``pregenerate`` only forks a helper.
Runs with zero, one or two helper slots must therefore be
indistinguishable: the same keys, the same CA rng state after every
call, the same keygen-memo entries in the same order and the same op
tallies, whatever the helpers do meanwhile (run ahead, fall behind, are
stopped, killed or starved).
Tests set how many helpers they may fork by patching
``rsa.HELPER_SLOTS`` to that many beyond the helpers that worlds kept
by other tests hold, and count only their own.
"""

from __future__ import annotations

import gc
import os
import random
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.pki.rsa as rsa
from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.pki.ca import CertificateAuthority
from repro.pki.dn import DistinguishedName
from repro.sim.clock import Clock
from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.util import memo, opcount
from repro.util.memo import Memo
from repro.util.units import KB, gbps
from tests.conftest import make_gcmu_site

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


#: pids of helpers that worlds kept by other tests held when this test began
_OTHERS: set[int] = set()


@pytest.fixture(autouse=True)
def others_helpers(monkeypatch):
    """Note the helpers that are not this test's; the keygen memo restored after."""
    gc.collect()  # helpers of garbage worlds close now, not halfway through the test
    _OTHERS.clear()
    _OTHERS.update(rsa._HELPERS)
    monkeypatch.setattr(rsa, "_KEYGEN_MEMO", rsa._KEYGEN_MEMO)


def _slots(monkeypatch, n: int) -> None:
    """Let this test fork ``n`` helpers."""
    monkeypatch.setattr(rsa, "HELPER_SLOTS", len(_OTHERS) + n)


def _mine() -> dict:
    """This test's live helpers, by pid."""
    return {pid: h for pid, h in rsa._HELPERS.items() if pid not in _OTHERS}


class _Hung(BaseException):
    """Not an OSError, which ``KeyHelper.take`` absorbs, nor an Exception,
    which hypothesis would shrink by running the hanging example again."""


@pytest.fixture(autouse=True)
def no_hang():
    """An owner left waiting on a helper fails its test after two minutes
    instead of blocking the suite."""
    def hung(signum, frame):
        raise _Hung("a test of key helpers ran for two minutes")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


STEPS = ("issue", "issue", "issue", "issue_other_bits", "pregenerate", "wait", "kill", "stop")


def _ca(seed: int) -> CertificateAuthority:
    subject = DistinguishedName.make(("O", "Helper"), ("CN", f"CA {seed}"))
    return CertificateAuthority(subject, Clock(), rng=random.Random(seed), key_bits=128)


def _user(i: int) -> DistinguishedName:
    return DistinguishedName.make(("O", "Helper"), ("CN", f"user{i}"))


def _wait_for_frame(helper: rsa.KeyHelper | None) -> None:
    """Block until the helper has a key waiting (at most 5 s)."""
    if helper is not None and not helper.closed and not helper._frames:
        select.select([helper._keys], [], [], 5.0)


def _child_search(delay_s: float, fast: int = 0):
    """A ``_search_primes`` that, in a forked helper, sleeps ``delay_s``
    before each search after its first ``fast``, and records each search
    this process makes."""
    search, parent, inline, child = rsa._search_primes, os.getpid(), [], []

    def searched(bits, rng):
        if os.getpid() == parent:
            inline.append(bits)
        else:
            if len(child) >= fast:
                time.sleep(delay_s)
            child.append(bits)  # each child's own copy, empty when forked
        return search(bits, rng)

    return searched, inline


def _drive(seed: int, steps: list[tuple[int, str]], bits: int) -> tuple:
    """Run ``steps`` against two fresh CAs and a fresh memo; (per-call
    trace, memo entries, tallies)."""
    entries = Memo("rsa.keygen", 256)
    rsa._KEYGEN_MEMO = entries
    before = opcount.snapshot()
    cas = [_ca(seed), _ca(seed + 1)]
    stopped: set[int] = set()
    trace: list = []

    def issue(c: int, key_bits: int) -> None:
        key = cas[c].issue_credential(_user(len(trace)), key_bits=key_bits).key
        trace.append((c, key_bits, key.n, key.d, key._crt, cas[c].rng.getstate()))

    for c, step in steps:
        ca = cas[c]
        helper = ca._helper
        live = helper is not None and not helper.closed
        if step in ("issue", "issue_other_bits"):
            issue(c, bits if step == "issue" else bits + 32)
        elif step == "pregenerate":
            state = ca.rng.getstate()
            ca.pregenerate(2, key_bits=bits)
            assert ca.rng.getstate() == state
            trace.append((c, step, state))
        elif step == "wait":
            if live and helper.pid not in stopped:
                _wait_for_frame(helper)
        elif live and step == "kill":
            os.kill(helper.pid, signal.SIGKILL)
        elif live and step == "stop":
            os.kill(helper.pid, signal.SIGSTOP)
            stopped.add(helper.pid)
    memo_entries = list(entries._entries.items())
    tallies = opcount.since(before)
    del cas, ca, helper
    gc.collect()
    return trace, memo_entries, tallies


def test_helper_slots_match_none(monkeypatch):
    """Differential: random interleavings of two CAs give equal outcomes
    with zero, one and two helper slots."""
    served = []
    take = rsa.KeyHelper.take

    def counting_take(self, memo_key):
        found = take(self, memo_key)
        served.append(found is not None)
        return found

    monkeypatch.setattr(rsa.KeyHelper, "take", counting_take)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**16),
        steps=st.lists(st.tuples(st.integers(0, 1), st.sampled_from(STEPS)),
                       min_size=1, max_size=16),
        bits=st.sampled_from([96, 128]),
    )
    @example(seed=5, bits=128, steps=[(0, "issue"), (1, "issue"), (0, "pregenerate"),
                                      (1, "pregenerate"), (1, "issue"), (0, "issue_other_bits"),
                                      (0, "issue"), (1, "issue_other_bits")])
    # with one slot: CA 0's helper dies after a pregenerate, CA 1 finds no
    # slot, and CA 0 searches inline, then forks again
    @example(seed=9, bits=128, steps=[(0, "issue"), (0, "pregenerate"), (0, "kill"),
                                      (1, "issue"), (0, "issue"), (0, "issue"), (0, "issue")])
    def check(seed, steps, bits):
        runs = []
        for slots in (0, 1, 2):
            _slots(monkeypatch, slots)
            runs.append(_drive(seed, steps, bits))
            assert not _mine()
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    check()
    assert any(served), "no key was ever taken from a helper"
    assert not all(served), "no helper was ever dropped"


def test_pregenerate_on_a_live_helper_searches_no_key_inline(monkeypatch):
    """``pregenerate`` searches, tallies and draws nothing; with a helper
    the keys it asked for are searched there, and they are the inline ones."""
    searched, inline = _child_search(0.0)
    monkeypatch.setattr(rsa, "_search_primes", searched)
    keys = {}
    for slots in (1, 0):
        _slots(monkeypatch, slots)
        rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)
        ca = _ca(3)
        ca.issue_credential(_user(0))  # on demand: searched here, and forks the helper
        assert (ca._helper is not None) == bool(slots)
        inline.clear()
        before, state = opcount.snapshot(), ca.rng.getstate()
        ca.pregenerate(50)
        assert not inline
        assert not opcount.since(before)
        assert ca.rng.getstate() == state
        keys[slots] = [ca.issue_credential(_user(i)).key for i in range(1, 51)]
        assert len(inline) == (0 if slots else 50)
        del ca
        gc.collect()
    assert keys[1] == keys[0]
    assert not _mine()


def test_pregenerate_forks_a_helper_that_searches_ahead(monkeypatch):
    """On a CA without a helper, ``pregenerate`` forks one and returns; with
    no issue in between it searches :data:`rsa.AHEAD` keys and stops there.
    The CA's next keys start with those frames, none is searched inline,
    and they equal a zero-slot run's."""
    _slots(monkeypatch, 0)
    rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)
    ca = _ca(6)
    expected = [ca.issue_credential(_user(i), key_bits=128).key for i in range(21)]
    rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)
    ca = _ca(6)
    keys = [ca.issue_credential(_user(0), key_bits=128).key]  # no slot: no helper
    assert ca._helper is None
    _slots(monkeypatch, 1)
    searched, inline = _child_search(0.0)
    monkeypatch.setattr(rsa, "_search_primes", searched)
    ca.pregenerate(20, key_bits=128)
    helper = ca._helper
    assert helper is not None and list(_mine()) == [helper.pid]
    deadline = time.monotonic() + 30.0
    while len(helper._frames) < rsa.AHEAD and time.monotonic() < deadline:
        select.select([helper._keys], [], [], 1.0)
        assert helper._read()
    time.sleep(0.2)  # a 128-bit key takes about a millisecond: time for more
    helper._read()
    frames = list(helper._frames)
    assert len(frames) == rsa.AHEAD
    keys += [ca.issue_credential(_user(i), key_bits=128).key for i in range(1, 21)]
    assert not inline
    assert [key.n for key in keys[1:1 + rsa.AHEAD]] == [p * q for _, p, q, _ in frames]
    assert keys == expected
    del ca, helper
    gc.collect()
    assert not _mine()


@pytest.mark.skipif(not memo.enabled(), reason="memo hits need the keygen memo")
def test_owner_ahead_of_its_helper_drops_it_without_waiting(monkeypatch):
    """Memo hits move the CA past keys its slow helper has not searched yet:
    the next miss closes the helper at once and searches inline."""
    _slots(monkeypatch, 0)
    rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)
    ca = _ca(4)
    expected = [ca.issue_credential(_user(i), key_bits=128).key for i in range(6)]
    ca = _ca(4)
    for i in range(2):
        ca.issue_credential(_user(i), key_bits=128)
    rsa._KEYGEN_MEMO = third_to_fifth = Memo("rsa.keygen", 256)
    for i in range(2, 5):
        ca.issue_credential(_user(i), key_bits=128)
    searched, inline = _child_search(5.0, fast=1)  # the helper's second key takes 5 s
    monkeypatch.setattr(rsa, "_search_primes", searched)
    waits = []
    monkeypatch.setattr(rsa, "select", SimpleNamespace(
        select=lambda *a: waits.append(a) or select.select(*a)))
    _slots(monkeypatch, 1)
    ca = _ca(4)
    keys = [ca.issue_credential(_user(0), key_bits=128).key]  # searched here; forks the helper
    helper = ca._helper
    assert helper is not None
    keys.append(ca.issue_credential(_user(1), key_bits=128).key)  # the helper's first key
    keys += [ca.issue_credential(_user(i), key_bits=128).key for i in range(2, 5)]  # memo hits
    assert third_to_fifth.hits == 3 and not helper.closed
    inline.clear()
    waits.clear()
    keys.append(ca.issue_credential(_user(5), key_bits=128).key)
    assert keys == expected
    assert helper.closed and not waits
    assert inline == [128]  # the sixth key was searched here
    del ca, helper
    gc.collect()
    assert not _mine()


def test_starved_helper_is_dropped_and_not_restarted(monkeypatch):
    """A helper that waits for a CPU longer than it runs is closed after
    one poll, the key is searched inline, and its CA forks no other for
    its next keys."""
    _slots(monkeypatch, 0)
    rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)
    ca = _ca(5)
    expected = [ca.issue_credential(_user(i), key_bits=128).key for i in range(3)]
    assert isinstance(rsa._queued_s(os.getpid()), float)
    searched, inline = _child_search(5.0)  # the helper sleeps 5 s before each key
    monkeypatch.setattr(rsa, "_search_primes", searched)
    _slots(monkeypatch, 1)
    rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)
    ca = _ca(5)
    keys = [ca.issue_credential(_user(0), key_bits=128).key]  # searched here; forks the helper
    helper = ca._helper
    assert helper is not None
    monkeypatch.setattr(rsa, "_queued_s", lambda pid: time.monotonic())  # never on a CPU
    inline.clear()
    began = time.monotonic()
    keys.append(ca.issue_credential(_user(1), key_bits=128).key)
    assert time.monotonic() - began < 2.0  # not the helper's 5 s
    assert helper.closed and helper.starved
    keys.append(ca.issue_credential(_user(2), key_bits=128).key)
    assert keys == expected
    assert inline == [128, 128]
    assert ca._helper is helper and not _mine()
    del ca, helper
    gc.collect()


def test_starved_ca_forks_again_after_ahead_inline_keys(monkeypatch):
    """After a starvation the CA makes :data:`rsa.AHEAD` keys inline and
    then forks again; after a second one, twice as many.  Keys, rng states
    and tallies are those of a run with no helper."""
    ahead = rsa.AHEAD
    starved = (1, 4 + ahead)  # the issues on which a helper starves
    # a helper forked after issue i searches with _search_primes as patched at i
    search = {0: _child_search(5.0)[0],  # A: 5 s before each key
              2: _child_search(5.0, fast=2)[0],  # B: two keys, then 5 s before each
              5 + ahead: _child_search(0.0)[0]}  # C: every key at once
    queued = rsa._queued_s
    served = []
    take = rsa.KeyHelper.take

    def counting_take(self, memo_key):
        found = take(self, memo_key)
        served.append(found is not None)
        return found

    monkeypatch.setattr(rsa.KeyHelper, "take", counting_take)

    def run(slots: int) -> tuple:
        _slots(monkeypatch, slots)
        rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)
        before = opcount.snapshot()
        ca = _ca(8)
        trace, forks, from_helper = [], {}, []
        for i in range(7 + 3 * ahead):
            if i in search:
                monkeypatch.setattr(rsa, "_search_primes", search[i])
            if i in starved:
                monkeypatch.setattr(rsa, "_queued_s", lambda pid: time.monotonic())
            served.clear()
            key = ca.issue_credential(_user(i), key_bits=128).key
            monkeypatch.setattr(rsa, "_queued_s", queued)
            if i in starved and slots:
                assert ca._helper.starved
            trace.append((key.n, key.d, ca.rng.getstate()))
            from_helper.append(any(served))
            helper = ca._helper
            if helper is not None and not helper.closed:
                forks.setdefault(helper.pid, i)
        tallies = opcount.since(before)
        del ca, helper
        gc.collect()
        return trace, tallies, list(forks.values()), [i for i, hit in enumerate(from_helper) if hit]

    expected = run(0)
    assert expected[2:] == ([], [])
    got = run(1)
    assert got[:2] == expected[:2]
    assert got[2] == [0, 1 + ahead, 4 + 3 * ahead]  # issues after which a helper was forked
    assert got[3] == [2 + ahead, 3 + ahead, 5 + 3 * ahead, 6 + 3 * ahead]
    assert not _mine()


def _script_output(script: str) -> str:
    """Stdout of ``script`` run in a fresh interpreter (60 s at most)."""
    src = str(Path(rsa.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_stopped_helper_is_dropped_not_waited_on():
    """In a fresh interpreter, so a hang fails the test on its timeout."""
    assert _script_output("""
        import os, random, signal, time
        import repro.pki.rsa as rsa
        from repro.pki.ca import CertificateAuthority
        from repro.pki.dn import DistinguishedName
        from repro.sim.clock import Clock
        from repro.util.memo import Memo

        search, parent, inline = rsa._search_primes, os.getpid(), []
        def searched(bits, rng):
            if os.getpid() == parent:
                inline.append(bits)
            else:
                time.sleep(1.0)  # the stop lands before the helper's first key
            return search(bits, rng)
        rsa._search_primes = searched

        def keys(slots):
            rsa.HELPER_SLOTS = slots
            rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)
            ca = CertificateAuthority(DistinguishedName.make(("CN", "CA")), Clock(),
                                      rng=random.Random(1), key_bits=128)
            first = ca.issue_credential(DistinguishedName.make(("CN", "u0")), key_bits=128)
            if slots:
                pid = ca._helper.pid
                os.kill(pid, signal.SIGSTOP)
                os.waitid(os.P_PID, pid, os.WSTOPPED | os.WNOWAIT)  # stopped, still waitable
                inline.clear()
            second = ca.issue_credential(DistinguishedName.make(("CN", "u1")), key_bits=128)
            if slots:
                assert inline == [128], inline
                assert pid not in rsa._HELPERS
            return first.key, second.key

        assert keys(1) == keys(0)
        print("dropped")
    """) == "dropped"


def test_dropped_ca_reaps_its_helper(monkeypatch):
    _slots(monkeypatch, 1)
    ca = _ca(1)
    ca.issue_credential(_user(0), key_bits=128)
    pid = ca._helper.pid
    assert _mine() == {pid: ca._helper}
    del ca
    gc.collect()
    assert not _mine()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_dropped_ca_leaves_no_child_process():
    """In a fresh interpreter, where no other world holds a helper."""
    assert _script_output("""
        import gc, os, random
        import repro.pki.rsa as rsa
        from repro.pki.ca import CertificateAuthority
        from repro.pki.dn import DistinguishedName
        from repro.sim.clock import Clock

        rsa.HELPER_SLOTS = 1
        ca = CertificateAuthority(DistinguishedName.make(("CN", "CA")), Clock(),
                                  rng=random.Random(1), key_bits=128)
        ca.issue_credential(DistinguishedName.make(("CN", "u")), key_bits=128)
        assert ca._helper is not None
        del ca
        gc.collect()
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child")
    """) == "no child"


def _pipe_inodes(pid: int) -> set[str]:
    """``pipe:[inode]`` of every pipe end process ``pid`` holds."""
    fd_dir = f"/proc/{pid}/fd"
    links = set()
    for fd in os.listdir(fd_dir):
        try:
            links.add(os.readlink(os.path.join(fd_dir, fd)))
        except FileNotFoundError:
            pass  # the directory listing's own descriptor, closed since
    return {link for link in links if link.startswith("pipe:")}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_slots_bound_helpers_and_siblings_hold_no_pipes(monkeypatch):
    _slots(monkeypatch, 2)
    first, second, third = _ca(1), _ca(2), _ca(3)
    for ca in (first, second, third):
        ca.issue_credential(_user(0), key_bits=128)
    assert third._helper is None  # both slots are taken
    assert len(_mine()) == 2
    own = {f"pipe:[{os.fstat(fd).st_ino}]" for fd in (first._helper._keys, first._helper._credit)}
    _wait_for_frame(second._helper)  # past its set-up, so it has closed what it will close
    assert own <= _pipe_inodes(os.getpid())
    assert not own & _pipe_inodes(second._helper.pid)
    # closing a helper frees its slot for the next on-demand search
    first._helper.close()
    third.issue_credential(_user(1), key_bits=128)
    assert third._helper is not None and not third._helper.closed
    second._helper.close()
    third._helper.close()
    assert not _mine()


def _go_world(seed: int):
    world = World(seed=seed)
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.03)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "saas")
    users = {f"u{i}": f"pw{i}" for i in range(6)}
    ep_a = make_gcmu_site(world, "dtn-a", "alcf", users, register_with=go,
                          endpoint_name="alcf#dtn")
    ep_b = make_gcmu_site(world, "dtn-b", "nersc", {"sink": "pwS"}, register_with=go,
                          endpoint_name="nersc#dtn")
    return world, go, ep_a, ep_b, users


def _activate_and_drain(sig: int | None) -> tuple[list, list, float]:
    """Per user: activate both endpoints, queue one job, drain.  After the
    second user, ``sig`` goes to the alcf CA's helper (with two slots
    both CAs hold one)."""
    rsa._KEYGEN_MEMO = Memo("rsa.keygen", 256)  # every CA key is searched
    world, go, ep_a, ep_b, users = _go_world(7)
    ca = ep_a.myproxy.ca
    keys, states = [], []
    for i, (name, password) in enumerate(users.items()):
        account = go.register_user(f"{name}@globusid")
        for endpoint, username, pw in (("alcf#dtn", name, password), ("nersc#dtn", "sink", "pwS")):
            act = go.activate(account, endpoint, username, pw)
            keys.append((act.credential.key.n, act.credential.key.d))
        if i == 1 and sig is not None:
            assert ca._helper is not None and not ca._helper.closed
            os.kill(ca._helper.pid, sig)
        src = f"/home/{name}/f.dat"
        ep_a.storage.write_file(src, LiteralData(bytes([i]) * 64 * KB),
                                uid=ep_a.accounts.get(name).uid)
        job = go.submit_transfer(account, "alcf#dtn", src, "nersc#dtn",
                                 f"/home/sink/{name}.dat", defer=True)
        go.process_queue()
        states.append(job.status)
    keys.append(ca.rng.getstate())
    return keys, states, world.now


@pytest.mark.parametrize("sig", [signal.SIGSTOP, signal.SIGKILL], ids=["stopped", "killed"])
def test_stopped_or_killed_helper_changes_no_key(sig, monkeypatch):
    _slots(monkeypatch, 0)
    expected = _activate_and_drain(None)
    _slots(monkeypatch, 2)
    assert _activate_and_drain(sig) == expected
    assert all(status is JobStatus.SUCCEEDED for status in expected[1])
    gc.collect()
    assert not _mine()
