"""Unit tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _recorder(*names):
    clock = FakeClock()
    return layers.Recorder(names, clock=clock), clock


# -- self time -----------------------------------------------------------------


def test_self_time_excludes_nested_wrapped_calls():
    rec, clock = _recorder("outer", "inner")
    inner = rec.wrap(1, lambda: clock.advance(2.0))

    def body():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)

    rec.wrap(0, body)()
    assert rec.calls == [1, 1]
    assert rec.self_s == [4.0, 2.0]


def test_self_time_of_reentrant_calls_sums_to_wall_time():
    rec, clock = _recorder("f")

    def f(n):
        clock.advance(1.0)
        if n:
            wrapped(n - 1)
        clock.advance(1.0)

    wrapped = rec.wrap(0, f)
    wrapped(2)
    assert rec.calls == [3]
    assert rec.self_s == [6.0]
    assert clock.now == 6.0


def test_unwrapped_code_between_wrapped_calls_stays_with_the_caller():
    rec, clock = _recorder("outer", "inner")
    inner = rec.wrap(1, lambda: clock.advance(1.0))

    def body():
        for _ in range(3):
            inner()
            clock.advance(0.5)  # not wrapped: the caller's own time

    rec.wrap(0, body)()
    assert rec.self_s == [1.5, 3.0]


def test_spans_link_children_to_parents_and_survive_exceptions():
    rec, clock = _recorder("outer", "inner")

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    inner = rec.wrap(1, boom)

    def body():
        with pytest.raises(ValueError):
            inner()

    rec.wrap(0, body)()
    assert list(rec._ids) == [2, 1]  # recorded on exit: inner first
    assert list(rec._parents) == [1, 0]
    assert rec.calls == [1, 1]
    assert rec.self_s == [0.0, 1.0]


def test_span_log_is_bounded():
    rec = layers.Recorder(["f"], span_capacity=2)
    f = rec.wrap(0, lambda: None)
    for _ in range(5):
        f()
    assert rec.calls == [5]
    assert rec.span_count() == 2
    assert rec.spans_dropped == 3


def test_reset_keeps_wrappers_recording():
    rec, clock = _recorder("f")
    f = rec.wrap(0, lambda: clock.advance(1.0))
    f()
    rec.reset()
    f()
    assert rec.calls == [1]
    assert rec.self_s == [1.0]
    assert rec.span_count() == 1


# -- wrapping ------------------------------------------------------------------


def test_rebind_reaches_early_bound_references():
    def original():
        return "original"

    def replacement():
        return "replacement"

    fake = types.ModuleType("repro.perfbench_fake")
    fake.alias = original
    fake.TABLE = {"verb": original}
    holder = type("Holder", (), {"handler": original, "__module__": fake.__name__})
    fake.Holder = holder
    sys.modules[fake.__name__] = fake
    try:
        layers._rebind_everywhere(original, replacement)
    finally:
        del sys.modules[fake.__name__]
    assert fake.alias is replacement
    assert fake.TABLE["verb"] is replacement
    assert holder.__dict__["handler"] is replacement


def test_coverage_problems_flags_misses_and_unexpected_calls():
    entries = (layers.EntryPoint("a.x", (), moves=("w1",), zero=("w2",)),)
    assert layers.coverage_problems("w1", {"a.x": 3}, entries) == []
    assert layers.coverage_problems("w1", {"a.x": 0}, entries) == [
        "a.x.calls is 0 on w1; expected > 0"]
    assert layers.coverage_problems("w2", {"a.x": 2}, entries) == [
        "a.x.calls is 2 on w2; expected 0"]
    assert layers.coverage_problems("w3", {"a.x": 0}, entries) == []


# -- percentiles ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 0.5) == 50
    assert metrics.percentile(values, 0.99) == 99
    assert metrics.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        metrics.percentile([], 0.5)


@pytest.mark.parametrize("n, q", [
    (10_000, 0.99),  # capped at the wanted percentile
    (1000, 0.99),    # exactly 10 samples beyond p99
    (999, 0.95),
    (200, 0.95),
    (199, 0.9),
    (20, 0.5),
])
def test_tail_reports_highest_percentile_with_ten_samples_beyond(n, q):
    values = list(range(n))
    got_q, value, count = metrics.tail(values, 0.99)
    assert (got_q, count) == (q, n)
    assert value == metrics.percentile(values, q)


def test_tail_of_too_small_a_sample_is_none():
    assert metrics.tail(list(range(19))) == (None, None, 19)
    assert metrics.tail([]) == (None, None, 0)


def test_tail_never_exceeds_wanted_percentile():
    assert metrics.tail(list(range(10_000)), 0.5)[0] == 0.5


# -- ratios --------------------------------------------------------------------


def test_ratio_and_jain_zero_denominators():
    assert metrics.ratio(0, 0) == 0.0
    assert metrics.ratio(5, 0) == 0.0
    assert metrics.ratio(1, 4) == 0.25
    assert metrics.jain([]) == 0.0
    assert metrics.jain([0, 0]) == 0.0
    assert metrics.jain([3, 3, 3]) == 1.0
    assert metrics.jain([1, 0]) == 0.5


def test_ops_per_ref_removes_the_host_speed_of_each_round():
    # the same 100-op round twice, the second on a core running at half speed
    assert metrics.ops_per_ref([100, 100], [1.0, 2.0], [1e-3, 2e-3]) == pytest.approx(0.1)
    assert metrics.ops_per_ref([100], [1.0], [1e-3]) == pytest.approx(0.1)
    assert metrics.ops_per_ref([], [], []) == 0.0


def test_at_ref_speed_scales_to_the_nominal_reference():
    assert metrics.at_ref_speed(2.0, metrics.REF_NOMINAL_S) == 2.0
    assert metrics.at_ref_speed(2.0, 2 * metrics.REF_NOMINAL_S) == 1.0


def _idle_run():
    """A plain/traced pair in which nothing the ratios count happened."""
    counters = {k: 0 for k in (
        "scheduler.requeues", "scheduler.worker_crashes", "scheduler.batches_coalesced",
        "scheduler.steals", "recovery.attempts", "recovery.retries", "pool.reuses",
        "pool.misses", "route.hits", "route.misses", "events.batched", "events.total")}
    names = [e.name for e in layers.ENTRY_POINTS]
    rounds = {"round_ops": [0], "round_s": [0.0], "round_ref_s": [1e-3]}
    plain = {"gc_collections": 0, "gc_pause_s": 0.0, **rounds}
    traced = {"calls": dict.fromkeys(names, 0), "self_s": dict.fromkeys(names, 0.0),
              "counters": counters, "opcount": {}, "peak_queue_depth": 0,
              "wall_s": 0.0, **rounds}
    return plain, traced


def test_per_layer_ratios_are_zero_when_nothing_was_attempted():
    plain, traced = _idle_run()
    values = run.per_layer(plain, traced)
    assert set(values) == {name for name, _, _ in run.per_layer_spec()}
    for name in ("gridftp.pool.reuse_ratio", "gridftp.dcau.cached_ratio",
                 "recovery.attempts_per_job",
                 "net.route_cache.hit_ratio", "sim.events.batched_share",
                 "tracing.overhead_ratio", "gridftp.self_share"):
        assert values[name] == 0.0


def test_go_checks_fail_on_refused_submissions():
    import worker

    workload = worker.GoStorm(seed=1)
    queue = types.SimpleNamespace(delivered_bytes=dict)
    workload.go = types.SimpleNamespace(jobs={}, scheduler=types.SimpleNamespace(queue=queue))
    workload.refused = 3
    assert workload.checks() == ["3 submissions refused"]
    assert (workload.attempted, workload.failed) == (3, 3)


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        run.per_layer_spec())
    assert len(spec["per_layer"]) <= 128
