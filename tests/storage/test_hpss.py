"""The HPSS archival backend: staging latency semantics."""

import pytest

from repro.sim.clock import Clock
from repro.storage.hpss import HpssStorage
from repro.util.units import MB


@pytest.fixture
def hpss():
    clock = Clock()
    h = HpssStorage(clock, mount_latency_s=45.0, tape_bandwidth_Bps=160 * MB)
    h.makedirs("/archive", 0)
    return clock, h


def test_archived_file_starts_cold(hpss):
    clock, h = hpss
    h.write_file("/archive/run1.dat", b"x" * MB)
    assert not h.is_staged("/archive/run1.dat")


def test_first_read_pays_staging(hpss):
    clock, h = hpss
    h.write_file("/archive/run1.dat", b"x" * (160 * MB))
    t0 = clock.now
    h.open_read("/archive/run1.dat", 0)
    assert clock.now - t0 == pytest.approx(45.0 + 1.0)  # mount + 1s drain
    assert h.stage_count == 1


def test_second_read_is_free(hpss):
    clock, h = hpss
    h.write_file("/archive/run1.dat", b"x" * MB)
    h.open_read("/archive/run1.dat", 0)
    t0 = clock.now
    h.open_read("/archive/run1.dat", 0)
    assert clock.now == t0
    assert h.stage_count == 1


def test_evict_forces_restage(hpss):
    clock, h = hpss
    h.write_file("/archive/run1.dat", b"x" * MB)
    h.open_read("/archive/run1.dat", 0)
    h.evict("/archive/run1.dat")
    h.open_read("/archive/run1.dat", 0)
    assert h.stage_count == 2


def test_fresh_writes_are_staged(hpss):
    clock, h = hpss
    sink = h.open_write("/archive/new.dat", 0, 3)
    sink.write_range(0, b"abc")
    sink.close(complete=True)
    assert h.is_staged("/archive/new.dat")
    t0 = clock.now
    assert h.open_read("/archive/new.dat", 0).read_all() == b"abc"
    assert clock.now == t0  # no staging charge


def test_namespace_delegates(hpss):
    clock, h = hpss
    h.mkdir("/archive/sub", 0)
    h.write_file("/archive/sub/f", b"x")
    assert h.listdir("/archive/sub", 0) == ["f"]
    assert h.stat("/archive/sub/f", 0).size == 1
    h.rename("/archive/sub/f", "/archive/sub/g", 0)
    assert h.exists("/archive/sub/g")
    h.delete("/archive/sub/g", 0)
    assert not h.exists("/archive/sub/g")


def test_rename_preserves_staged_state(hpss):
    clock, h = hpss
    h.write_file("/archive/a", b"x")
    h.open_read("/archive/a", 0)
    h.rename("/archive/a", "/archive/b", 0)
    assert h.is_staged("/archive/b")
    assert not h.is_staged("/archive/a")


def test_partial_resume_roundtrip(hpss):
    clock, h = hpss
    sink = h.open_write("/archive/up", 0, 6)
    sink.write_range(0, b"abc")
    sink.close(complete=False)
    sink2 = h.open_write("/archive/up", 0, 6, resume=True)
    sink2.write_range(3, b"def")
    sink2.close(complete=True)
    assert h.open_read("/archive/up", 0).read_all() == b"abcdef"
