"""Prometheus text exposition conformance, parsed line-by-line.

Every line the registry renders must match the exposition grammar
(``text/plain; version=0.0.4`` plus the OpenMetrics exemplar clause):

    # HELP <name> <escaped text>
    # TYPE <name> counter|gauge|histogram
    <name>{<label>="<escaped value>",...} <value> [# {trace_id="..."} <value>]

Label values escape backslash, double-quote, and newline; HELP text
escapes backslash and newline; exemplar syntax appears only on
histogram bucket lines that actually captured one.
"""

import re

from repro.sim.world import World
from repro.telemetry.metrics import MetricsRegistry

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
_VALUE = r"(?:[+-]?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|Inf)|NaN)"
_EXEMPLAR = rf'(?: # \{{trace_id="(?:[^"\\\n]|\\\\|\\"|\\n)*"\}} {_VALUE})?'

HELP_RE = re.compile(rf"^# HELP {_NAME} (?:[^\n\\]|\\\\|\\n)*$")
TYPE_RE = re.compile(rf"^# TYPE {_NAME} (?:counter|gauge|histogram)$")
SERIES_RE = re.compile(
    rf"^{_NAME}(?:\{{{_LABEL}(?:,{_LABEL})*\}})? {_VALUE}{_EXEMPLAR}$")


def assert_conformant(text: str) -> None:
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# HELP"):
            assert HELP_RE.match(line), f"bad HELP line: {line!r}"
        elif line.startswith("# TYPE"):
            assert TYPE_RE.match(line), f"bad TYPE line: {line!r}"
        else:
            assert SERIES_RE.match(line), f"bad series line: {line!r}"


def test_plain_registry_conforms():
    reg = MetricsRegistry()
    reg.counter("requests_total", "Requests served", labelnames=("code",)).inc(
        3, code="200")
    reg.gauge("queue_depth", "Tasks waiting").set(7)
    reg.histogram("latency_seconds", "Latency", buckets=(0.1, 1.0)).observe(0.5)
    assert_conformant(reg.render_prometheus())


def test_nasty_label_values_escape():
    reg = MetricsRegistry()
    c = reg.counter("weird_total", "Weird labels", labelnames=("path",))
    c.inc(1, path='C:\\data\\"quoted"\nline2')
    text = reg.render_prometheus()
    assert_conformant(text)
    series = [l for l in text.splitlines() if l.startswith("weird_total{")]
    assert series == [
        'weird_total{path="C:\\\\data\\\\\\"quoted\\"\\nline2"} 1']
    # no raw newline leaked into the body
    assert all("\n" not in line for line in series)


def test_help_text_escapes():
    reg = MetricsRegistry()
    reg.counter("c_total", "line one\nline two \\ backslash").inc()
    text = reg.render_prometheus()
    assert_conformant(text)
    assert "# HELP c_total line one\\nline two \\\\ backslash" in text


def test_exemplar_syntax_only_when_present():
    reg = MetricsRegistry()
    h = reg.histogram("op_seconds", "Op latency", buckets=(1.0, 10.0))
    h.observe(0.5)
    baseline = reg.render_prometheus()
    assert "# {" not in baseline
    assert_conformant(baseline)
    h.observe(5.0, exemplar="trace-0001")
    text = reg.render_prometheus()
    assert_conformant(text)
    lines = text.splitlines()
    exemplar_lines = [l for l in lines if "# {" in l]
    assert exemplar_lines == [
        'op_seconds_bucket{le="10"} 2 # {trace_id="trace-0001"} 5']
    # the bucket without an exemplar renders exactly as before
    assert 'op_seconds_bucket{le="1"} 1' in lines


def test_overflow_bucket_carries_exemplar():
    reg = MetricsRegistry()
    h = reg.histogram("big_seconds", "Huge ops", buckets=(1.0,))
    h.observe(100.0, exemplar="trace-0099")
    text = reg.render_prometheus()
    assert_conformant(text)
    assert ('big_seconds_bucket{le="+Inf"} 1 '
            '# {trace_id="trace-0099"} 100') in text


def test_labelled_histogram_child_exemplars_conform():
    reg = MetricsRegistry()
    h = reg.histogram("svc_seconds", "Per-component latency",
                      buckets=(1.0, 60.0), labelnames=("component",))
    child = h.labels(component="gridftp")
    child.observe(0.5, exemplar="trace-0003")
    child.observe(30.0)
    text = reg.render_prometheus()
    assert_conformant(text)
    assert ('svc_seconds_bucket{component="gridftp",le="1"} 1 '
            '# {trace_id="trace-0003"} 0.5') in text
    assert h.exemplars(component="gridftp")[1.0].trace_id == "trace-0003"


def test_latest_observation_wins_the_bucket_exemplar():
    reg = MetricsRegistry()
    h = reg.histogram("x_seconds", "X", buckets=(10.0,))
    h.observe(1.0, exemplar="trace-0001")
    h.observe(2.0, exemplar="trace-0002")
    h.observe(3.0)  # no exemplar: previous one is kept
    assert h.exemplars()[10.0].trace_id == "trace-0002"
    assert h.exemplars()[10.0].value == 2.0


def test_full_world_under_load_conforms():
    from repro.scheduler import FleetScheduler, ScheduledTask, SchedulerConfig

    world = World(seed=7, trace=True)
    world.enable_observability()
    sched = FleetScheduler(world, SchedulerConfig(
        workers=2, batch_threshold_bytes=0))
    for i in range(8):
        sched.submit(ScheduledTask(
            task_id=f"task-{i:06d}", user=f"user{i % 3}",
            src_endpoint="a#d", dst_endpoint="b#d", size_hint=1_000_000,
            execute=lambda: world.advance(3.0)))
    sched.run_until_idle()
    text = world.metrics.render_prometheus()
    assert_conformant(text)
    assert "slo_burn_rate{" in text
    assert "# {trace_id=" in text  # queue-wait exemplars made it out
