"""Smoke test for the per-job retention probe, ``tools/retention.py``.

The probe runs perfbench's go_storm workload; here a storm of two users
and eight jobs a round stands in for it, so a run takes a fraction of a
second.  The report names the jobs, the bytes the program and the
harness retain per job and the allocation sites, and the exit code turns
a bound, or any failed job, into a failure.
"""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "retention.py"


@pytest.fixture(scope="module")
def retention():
    spec = importlib.util.spec_from_file_location("retention", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_storm(retention, monkeypatch):
    class TinyStorm(retention.worker.GoStorm):
        users_n = accounts = 2
        jobs_per_user = 4

    monkeypatch.setattr(retention.worker, "GoStorm", TinyStorm)
    return TinyStorm


@pytest.mark.parametrize("bound, code", [("1e9", 0), ("1", 1)], ids=["under", "over"])
def test_a_tiny_storm_reports_and_gates(retention, tiny_storm, capsys, bound, code):
    assert retention.main(["--top", "5", "--max-bytes-per-job", bound]) == code
    out = capsys.readouterr().out
    assert ": go_storm seed 1, 24 jobs succeeded in the measured rounds (0 failed" in out
    assert " bytes by the program, " in out and " by the harness (perfbench/), " in out
    assert " GC-tracked objects in all" in out
    assert "largest allocation sites (top 5)" in out
    assert ("FAIL: " in out) == (code == 1)


def test_a_failed_job_fails_the_gate(retention, tiny_storm, capsys, monkeypatch):
    class UnwritableSink(tiny_storm):
        def setup(self):
            super().setup()
            self.dst.storage.chmod("/home/sink", 0o555)  # every upload is refused

    monkeypatch.setattr(retention.worker, "GoStorm", UnwritableSink)
    assert retention.main(["--max-bytes-per-job", "1e9"]) == 1
    out = capsys.readouterr().out
    assert "0 jobs succeeded in the measured rounds (40 failed in the run)" in out
    assert "FAIL: 40 jobs failed, so the figure counts traffic that did not run" in out
