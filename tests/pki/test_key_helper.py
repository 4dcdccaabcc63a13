"""The forked key-search helper changes when keys are searched, never which.

``KeyHelper`` runs a CA's key stream ahead in a child process, and
``generate_keypair`` takes a key from it only for the exact (bits, rng
state) it would search from.  A run with one helper slot must therefore
be indistinguishable from a run with none: the same keys, the same CA
rng state after every call, the same keygen-memo entries in the same
order and the same op tallies, whatever the helper does meanwhile
(runs ahead, falls behind, is stopped or killed).  Tests set the slot
count by patching ``rsa.HELPER_SLOTS``, and count slots in a registry of
their own, since a world another test keeps alive may hold a helper.
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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pki.rsa as rsa
from repro.globusonline.service import GlobusOnline
from repro.globusonline.transfer import JobStatus
from repro.pki.ca import CertificateAuthority
from repro.pki.dn import DistinguishedName
from repro.sim.clock import Clock
from repro.sim.world import World
from repro.storage.data import LiteralData
from repro.util import opcount
from repro.util.memo import Memo
from repro.util.units import KB, gbps
from tests.conftest import make_gcmu_site

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

@pytest.fixture(autouse=True)
def own_registry(monkeypatch):
    """A registry of this test's helpers; the keygen memo restored after."""
    monkeypatch.setattr(rsa, "_HELPERS", {})
    monkeypatch.setattr(rsa, "_KEYGEN_MEMO", rsa._KEYGEN_MEMO)


STEPS = ("issue", "issue", "issue", "issue_other_bits", "pregenerate", "wait", "kill", "stop")


def _ca(seed: int) -> CertificateAuthority:
    subject = DistinguishedName.make(("O", "Helper"), ("CN", f"CA {seed}"))
    return CertificateAuthority(subject, Clock(), rng=random.Random(seed), key_bits=128)


def _user(i: int) -> DistinguishedName:
    return DistinguishedName.make(("O", "Helper"), ("CN", f"user{i}"))


def _wait_for_frame(helper: rsa.KeyHelper | None) -> None:
    """Block until the helper has a key waiting (at most 5 s)."""
    if helper is not None and not helper.closed:
        select.select([helper._keys], [], [], 5.0)


def _drive(seed: int, steps: list[str], bits: int) -> tuple[list, list, dict]:
    """Run ``steps`` against a fresh CA and memo; (per-call trace, memo entries, tallies)."""
    memo = Memo("rsa.keygen", 256)
    rsa._KEYGEN_MEMO = memo
    before = opcount.snapshot()
    ca = _ca(seed)
    trace: list = []
    stopped = False
    for i, step in enumerate(steps):
        helper = ca._helper
        live = helper is not None and not helper.closed
        if step in ("issue", "issue_other_bits"):
            key_bits = bits if step == "issue" else bits + 32
            key = ca.issue_credential(_user(i), key_bits=key_bits).key
            trace.append((step, key.n, key.d, key._crt, ca.rng.getstate()))
        elif step == "pregenerate":
            ca.pregenerate(2, key_bits=bits)
            pool = ca._key_pool[bits]
            trace.append((step, [(k.n, k.d) for k in pool], ca.rng.getstate()))
        elif step == "wait":
            if live and not stopped:
                _wait_for_frame(helper)
        elif live and step == "kill":
            os.kill(helper.pid, signal.SIGKILL)
        elif live and step == "stop":
            os.kill(helper.pid, signal.SIGSTOP)
            stopped = True
        if ca._helper is not helper:
            stopped = False
    entries = list(memo._entries.items())
    tallies = opcount.since(before)
    del ca
    gc.collect()
    return trace, entries, tallies


def test_one_helper_slot_matches_none(monkeypatch):
    """Differential: random interleavings give equal outcomes with and without a helper."""
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
        steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=14),
        bits=st.sampled_from([96, 128]),
    )
    def check(seed, steps, bits):
        monkeypatch.setattr(rsa, "HELPER_SLOTS", 0)
        inline = _drive(seed, steps, bits)
        monkeypatch.setattr(rsa, "HELPER_SLOTS", 1)
        helped = _drive(seed, steps, bits)
        assert helped[0] == inline[0]
        assert helped[1] == inline[1]
        assert helped[2] == inline[2]
        assert not rsa._HELPERS

    check()
    assert any(served), "no key was ever taken from a helper"
    assert not all(served), "no helper was ever dropped"


def test_dropped_ca_reaps_its_helper(monkeypatch):
    monkeypatch.setattr(rsa, "HELPER_SLOTS", 1)
    ca = _ca(1)
    ca.issue_credential(_user(0), key_bits=128)
    pid = ca._helper.pid
    assert rsa._HELPERS == {pid: ca._helper}
    del ca
    gc.collect()
    assert not rsa._HELPERS
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_dropped_ca_leaves_no_child_process():
    """In a fresh interpreter, where no other world holds a helper."""
    script = textwrap.dedent("""
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
    """)
    src = str(Path(rsa.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "no child"


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
    monkeypatch.setattr(rsa, "HELPER_SLOTS", 2)
    first, second, third = _ca(1), _ca(2), _ca(3)
    for ca in (first, second, third):
        ca.issue_credential(_user(0), key_bits=128)
    assert third._helper is None  # both slots are taken
    assert len(rsa._HELPERS) == 2
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
    assert not rsa._HELPERS


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
    second user, ``sig`` goes to the alcf CA's helper."""
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
    monkeypatch.setattr(rsa, "HELPER_SLOTS", 0)
    expected = _activate_and_drain(None)
    monkeypatch.setattr(rsa, "HELPER_SLOTS", 1)
    assert _activate_and_drain(sig) == expected
    assert all(status is JobStatus.SUCCEEDED for status in expected[1])
    gc.collect()
    assert not rsa._HELPERS
