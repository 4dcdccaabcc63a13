"""Smoke test for the sampled workload profile, ``tools/profile_hotpath.py
--workload``.

The tool runs a perfbench workload in process and samples its warm
rounds on ``SIGPROF``; here a storm of two users and eight jobs a round
stands in for go_storm, so a run takes a fraction of a second.  The
report names the rounds, the jobs, the samples and two tables of
functions, and the tool leaves no timer or handler armed behind it.
"""

import importlib.util
import signal
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "profile_hotpath.py"


@pytest.fixture(scope="module")
def profile_hotpath():
    spec = importlib.util.spec_from_file_location("profile_hotpath", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_storm(profile_hotpath, monkeypatch):
    worker = profile_hotpath.worker

    class TinyStorm(worker.GoStorm):
        users_n = accounts = 2
        jobs_per_user = 4

    monkeypatch.setitem(worker.WORKLOADS, "go_storm", TinyStorm)
    return TinyStorm


def test_a_tiny_storm_is_sampled_and_reported(profile_hotpath, tiny_storm, capsys):
    handler = signal.getsignal(signal.SIGPROF)
    assert profile_hotpath.main(["--workload", "go_storm", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("go_storm seed 1: 20 rounds sampled after 2 warm, "
                          "160 jobs succeeded (0 failed in the run); ")
    assert " s CPU; " in out and " samples, one per " in out
    assert "top 5 by self share of wall time" in out
    assert "top 5 by inclusive share of wall time" in out
    assert " | self % | self samples | incl % | incl samples" in out
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler


def _recurse(depth):
    """The frame of the innermost of ``depth + 1`` nested calls."""
    return _recurse(depth - 1) if depth else sys._getframe()


def test_the_sampler_counts_self_and_inclusive_once_per_sample(profile_hotpath):
    sampler = profile_hotpath.StackSampler(0.001)
    frame = _recurse(3)
    sampler._sample(signal.SIGPROF, frame)
    sampler._sample(signal.SIGPROF, None)
    assert sampler.samples == 2
    assert sampler.self_counts == {_recurse.__code__: 1}
    assert sampler.inclusive[_recurse.__code__] == 1  # four frames deep, counted once
    assert sampler.inclusive[test_the_sampler_counts_self_and_inclusive_once_per_sample
                             .__code__] == 1


def test_generated_methods_are_named_by_their_class(profile_hotpath):
    from repro.gridftp.replies import Reply

    owners = profile_hotpath._generated_owners()
    assert owners[Reply.__init__.__code__] == "repro.gridftp.replies.Reply.__init__"
    label = profile_hotpath._label(Reply.__init__.__code__, owners)
    assert label == "repro.gridftp.replies.Reply.__init__ (generated)"
