"""The determinism-digest gate, ``tools/check_digests.py``.

A real check runs perfbench six times; here a stand-in run answers, so
the test pins only what the gate compares and how it reports.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_digests.py"


@pytest.fixture(scope="module")
def check_digests():
    spec = importlib.util.spec_from_file_location("check_digests", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _committed(check_digests):
    return json.loads(check_digests.BASELINE.read_text())["determinism_digest"]


def test_the_baseline_covers_both_workloads_at_three_seeds(check_digests):
    digests = _committed(check_digests)
    assert {w: sorted(s) for w, s in digests.items()} == {
        "go_storm": ["1", "2", "3"], "go_many_users": ["1", "2", "3"],
    }


@pytest.mark.parametrize("moved, code", [(None, 0), (("go_many_users", 2), 1)],
                         ids=["equal", "one-differs"])
def test_any_moved_digest_fails_the_gate(check_digests, monkeypatch, capsys, moved, code):
    digests = _committed(check_digests)
    runs = []

    def run_digest(workload, seed, seconds):
        runs.append((workload, seed, seconds))
        return "0" * 16 if (workload, seed) == moved else digests[workload][str(seed)]

    monkeypatch.setattr(check_digests, "run_digest", run_digest)
    assert check_digests.main() == code
    assert len(runs) == 6 and {s for _, _, s in runs} == {6}
    out = capsys.readouterr().out
    assert out.count("DIFFERS") == (moved is not None)
    if moved:
        assert ("go_many_users seed 2: committed 56dd9c23c22e935b, "
                "now 0000000000000000  DIFFERS") in out


@pytest.mark.parametrize("code", [0, 1], ids=["clean", "check-failed"])
def test_a_run_that_exits_nonzero_has_no_digest(check_digests, monkeypatch, capsys, code):
    # run.py prints the first repetition's digest before it compares the
    # others, so a run whose seed-2 repetition disagrees still prints one.
    stdout = ("# workload=go_storm seed=2 seconds=6 trace=0 repetitions=3 rounds=3 "
              "determinism_digest=5c41a7d5aea14530\n")
    if code:
        stdout += "CHECK FAILED: repetition 2 differs from repetition 1\n"

    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, code, stdout=stdout, stderr="")

    monkeypatch.setattr(check_digests.subprocess, "run", run)
    got = check_digests.run_digest("go_storm", 2, 6)
    assert got == ("none (run.py exited 1)" if code else "5c41a7d5aea14530")
    assert ("CHECK FAILED" in capsys.readouterr().err) == bool(code)


# -- the traced counts (--calls) ------------------------------------------------


def _committed_calls(check_digests):
    return json.loads(check_digests.CALLS_BASELINE.read_text())


def test_the_calls_baseline_covers_both_workloads_alike(check_digests):
    baseline = _committed_calls(check_digests)
    assert (baseline["seed"], baseline["seconds"]) == (1, 6)
    calls = baseline["calls"]
    assert sorted(calls) == ["go_many_users", "go_storm"]
    names = set(calls["go_storm"])
    assert names == set(calls["go_many_users"])
    assert all(n.endswith(".calls") or n.startswith("opcount.") for n in names)
    assert "sim.faults_query.calls" in names and "opcount.rsa.sign" in names


@pytest.mark.parametrize("moved", [None, "gridftp.session_handle.calls", "opcount.rsa.sign"])
def test_any_moved_count_fails_the_gate_by_name(check_digests, monkeypatch, capsys, moved):
    baseline = _committed_calls(check_digests)
    runs = []

    def run_calls(workload, seed, seconds):
        runs.append((workload, seed, seconds))
        got = dict(baseline["calls"][workload])
        if moved and workload == "go_storm":
            got[moved] += 1
        return got

    monkeypatch.setattr(check_digests, "run_calls", run_calls)
    assert check_digests.main(["--calls"]) == (1 if moved else 0)
    assert sorted(runs) == [("go_many_users", 1, 6), ("go_storm", 1, 6)]
    out = capsys.readouterr().out
    assert out.count("DIFFERS") == (1 if moved else 0)
    if moved:
        want = baseline["calls"]["go_storm"][moved]
        assert f"go_storm {moved}: committed {want}, now {want + 1}  DIFFERS" in out


def test_a_traced_run_reports_only_its_counts(check_digests, monkeypatch):
    metrics = {
        "gridftp.session_handle.calls": {"value": 7, "unit": "count"},
        "gridftp.session_handle.self_s": {"value": 0.5, "unit": "s"},
        "gridftp.pool.reuse_ratio": {"value": 0.9, "unit": "ratio"},
        "opcount.rsa.sign": {"value": 3, "unit": "count"},
    }
    stdout = "  per-layer table\n" + json.dumps({"correct": True, "metrics": metrics}) + "\n"
    argv_seen = []

    def run(argv, **kwargs):
        argv_seen.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(check_digests.subprocess, "run", run)
    assert check_digests.run_calls("go_storm", 1, 6) == {
        "gridftp.session_handle.calls": 7, "opcount.rsa.sign": 3}
    assert argv_seen[0][-2:] == ["--trace", "1"]


def test_a_traced_run_that_fails_its_checks_has_no_counts(check_digests, monkeypatch, capsys):
    stdout = "CHECK FAILED: sim.faults_query.calls is 0 on go_storm; expected > 0\n{}\n"

    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 1, stdout=stdout, stderr="")

    monkeypatch.setattr(check_digests.subprocess, "run", run)
    assert check_digests.run_calls("go_storm", 1, 6) == "none (run.py exited 1)"
    assert "CHECK FAILED" in capsys.readouterr().err
