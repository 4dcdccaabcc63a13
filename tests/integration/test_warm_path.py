"""A warm Globus Online drain re-derives nothing per job.

Once the session caches are warm, every job of a drain asks questions
whose answers cannot change between jobs: is the cache switch on, is
this blob printable, does this directory exist, which metric series
does this update go to, can a fault touch this route.  When such a
question is answered by raising and catching an exception (an
environment lookup of a missing variable raises ``KeyError`` twice),
each job pays for it, and cProfile charges the cost to the builtin that
raised, where it is easy to miss.  One guard counts every exception
raised, in any frame, while a warm drain runs, and requires none.
Failure paths (faults, refused logins) raise by design and are left out
of the drain.  The other counts the registry lookups, label-set freezes,
control-fault and route-fault queries and FEAT label sorts the drain
makes, and requires none per job.
"""

import os
import sys
from collections import Counter

from repro.globusonline.transfer import JobStatus
from repro.gridftp import commands
from repro.sim.faults import FaultPlan
from repro.telemetry import metrics
from repro.util.units import KB, MB
from tests.globusonline.test_fleet_scheduling import activate, build, write_src

USERS = (("alice", "pwA"), ("bob", "pwB"))


def _wave(go, ep_a, accounts, wave):
    """Submit four jobs per user, three small and one large, and drain."""
    jobs = []
    for k in range(4):
        for (name, _), account in zip(USERS, accounts):
            src = f"/home/{name}/w{wave}-{k}.dat"
            write_src(ep_a, src, 8 * MB if k == 3 else 256 * KB, owner=name, seed=wave * 8 + k)
            jobs.append(go.submit_transfer(account, "alcf#dtn", src, "nersc#dtn",
                                           f"/home/asmith/{name}-w{wave}-{k}.dat", defer=True))
    go.process_queue()
    return jobs


def _raised_during(fn, *args):
    """``fn(*args)``, and a count of exception events by (type, file, function).

    The tracer that was running (a coverage run's) is set aside for the
    call and put back after it, so what follows is still measured.
    """
    raised = Counter()

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        return on_event

    def on_event(frame, event, arg):
        if event == "exception":
            code = frame.f_code
            raised[(arg[0].__name__, code.co_filename, code.co_name)] += 1
        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, raised


def _environ_miss():
    return os.environ.get("REPRO_WARM_PATH_UNSET_VARIABLE")


def test_the_guard_counts_a_caught_exception_and_gives_back_the_tracer():
    def outer(frame, event, arg):
        return None

    found = sys.gettrace()
    sys.settrace(outer)
    try:
        _, raised = _raised_during(_environ_miss)
        after = sys.gettrace()
    finally:
        sys.settrace(found)
    assert after is outer
    assert sum(n for (name, _, _), n in raised.items() if name == "KeyError") >= 1


def test_a_warm_drain_raises_nothing(world, cache_on):
    go, ep_a, _ = build(world)
    accounts = [activate(go, f"{name}@globusid", name, pw) for name, pw in USERS]
    warm_up = _wave(go, ep_a, accounts, 0)
    jobs, raised = _raised_during(_wave, go, ep_a, accounts, 1)
    assert [j.status for j in warm_up + jobs] == [JobStatus.SUCCEEDED] * 16
    assert raised == Counter()


def _count_calls(monkeypatch, owner, name, calls, kind):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[kind] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _count_function_calls(monkeypatch, fn, calls, kind):
    """Count calls to ``fn`` through every module of the package that binds it."""
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, fn.__name__, None) is fn):
            _count_calls(monkeypatch, module, fn.__name__, calls, kind)


def test_a_warm_drain_resolves_instruments_and_fault_exposure_once(world, cache_on,
                                                                   monkeypatch):
    go, ep_a, _ = build(world)
    accounts = [activate(go, f"{name}@globusid", name, pw) for name, pw in USERS]
    warm_up = _wave(go, ep_a, accounts, 0)
    assert world.faults.faults("control") == ()
    calls = Counter()
    for name in ("counter", "gauge", "histogram"):
        _count_calls(monkeypatch, metrics.MetricsRegistry, name, calls, "registry")
    _count_calls(monkeypatch, metrics, "_freeze_labels", calls, "freeze")
    _count_calls(monkeypatch, FaultPlan, "control_down", calls, "control_down")
    # a pooled checkout reads its parked channel's stamped exposure
    _count_calls(monkeypatch, FaultPlan, "faulted", calls, "faulted")
    # FEAT answers with a body built at import
    _count_function_calls(monkeypatch, commands.feature_labels, calls, "feature_labels")
    jobs = _wave(go, ep_a, accounts, 1)
    assert [j.status for j in warm_up + jobs] == [JobStatus.SUCCEEDED] * 16
    # the drain's one lookup: the pool's reuse-ratio gauge, set as it ends
    assert calls["registry"] <= 1
    assert calls["freeze"] == 0
    assert calls["control_down"] == 0
    assert calls["faulted"] == 0
    assert calls["feature_labels"] == 0
