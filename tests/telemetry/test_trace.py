"""Tracer mechanics: context propagation, nesting, timeline reconstruction."""

import pytest

from repro.sim.world import World


@pytest.fixture
def fresh_world() -> World:
    return World(seed=7, trace=True)


def test_span_outside_any_trace_starts_a_root(fresh_world):
    w = fresh_world
    assert w.tracer.current is None
    with w.span("outer") as sp:
        assert w.tracer.current is sp.context
        assert sp.context.is_root
    assert w.tracer.current is None
    trace = w.tracer.last_trace()
    assert trace is not None and len(trace) == 1


def test_nested_spans_share_trace_and_chain_parents(fresh_world):
    w = fresh_world
    with w.span("outer") as outer:
        with w.span("inner") as inner:
            assert inner.context.trace_id == outer.context.trace_id
            assert inner.context.parent_id == outer.context.span_id
    with w.span("separate") as sep:
        assert sep.context.trace_id != outer.context.trace_id


def test_span_durations_use_virtual_time(fresh_world):
    w = fresh_world
    with w.span("outer") as outer:
        w.advance(2.0)
        with w.span("inner") as inner:
            w.advance(3.0)
    assert inner.duration_s == pytest.approx(3.0)
    assert outer.duration_s == pytest.approx(5.0)


def test_span_exception_marks_error_and_propagates(fresh_world):
    w = fresh_world
    with pytest.raises(ValueError):
        with w.span("doomed") as sp:
            raise ValueError("boom")
    assert sp.status == "error"
    assert "boom" in sp.error
    assert w.tracer.current is None  # stack unwound


def test_emit_stamps_active_context(fresh_world):
    w = fresh_world
    w.emit("plain", "no trace")
    with w.span("traced") as sp:
        ev = w.emit("inside", "has trace")
    assert w.log.last("plain").trace_id is None
    assert ev.trace_id == sp.context.trace_id
    assert ev.span_id == sp.context.span_id


def test_timeline_reconstructs_tree(fresh_world):
    w = fresh_world
    with w.span("root"):
        with w.span("child-a"):
            with w.span("grandchild"):
                pass
        with w.span("child-b"):
            pass
    trace = w.tracer.last_trace()
    roots = trace.timeline()
    assert len(roots) == 1
    root = roots[0]
    assert root.span.name == "root"
    assert [c.span.name for c in root.children] == ["child-a", "child-b"]
    assert root.children[0].children[0].span.name == "grandchild"
    walked = [(depth, span.name) for depth, span in root.walk()]
    assert walked == [
        (0, "root"), (1, "child-a"), (2, "grandchild"), (1, "child-b"),
    ]


def test_trace_find_and_render(fresh_world):
    w = fresh_world
    with w.span("job"):
        with w.span("attempt", attempt=1):
            pass
        with w.span("attempt", attempt=2):
            pass
    trace = w.tracer.last_trace()
    assert len(trace.find("attempt")) == 2
    text = trace.render()
    assert "job" in text
    assert text.count("attempt") == 2
