"""Counters, gauges, histograms, and the Prometheus exposition format."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.metrics import MetricError, MetricsRegistry


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


# -- counters -----------------------------------------------------------------


def test_counter_accumulates_per_labelset(registry):
    c = registry.counter("bytes_total", "bytes", labelnames=("direction",))
    c.inc(100, direction="store")
    c.inc(50, direction="store")
    c.inc(7, direction="retrieve")
    assert c.value(direction="store") == 150
    assert c.value(direction="retrieve") == 7
    assert c.value(direction="other") == 0
    assert c.total() == 157


def test_counter_rejects_decrease(registry):
    c = registry.counter("ops_total")
    with pytest.raises(MetricError):
        c.inc(-1)


@pytest.mark.parametrize("bound", [False, True], ids=["family", "child"])
def test_counter_refuses_a_nan_increment(registry, bound):
    c = registry.counter("ops_total")
    inc = c.labels().inc if bound else c.inc
    inc(2)
    with pytest.raises(MetricError, match="finite"):
        inc(float("nan"))
    assert c.total() == 2
    assert "ops_total 2\n" in registry.render_prometheus()


@pytest.mark.parametrize("bound", [False, True], ids=["family", "child"])
def test_counter_refuses_an_infinite_increment(registry, bound):
    c = registry.counter("ops_total")
    inc = c.labels().inc if bound else c.inc
    with pytest.raises(MetricError, match="finite"):
        inc(math.inf)
    assert c.value() == 0


def test_counter_label_mismatch_rejected(registry):
    c = registry.counter("x_total", labelnames=("a",))
    with pytest.raises(MetricError):
        c.inc(1, b="nope")
    with pytest.raises(MetricError):
        c.inc(1)  # missing label


def test_get_or_create_shares_series(registry):
    registry.counter("shared_total", labelnames=("k",)).inc(k="v")
    registry.counter("shared_total", labelnames=("k",)).inc(k="v")
    assert registry.counter("shared_total", labelnames=("k",)).value(k="v") == 2


def test_redeclare_with_different_kind_or_labels_fails(registry):
    registry.counter("thing_total", labelnames=("a",))
    with pytest.raises(MetricError):
        registry.gauge("thing_total", labelnames=("a",))
    with pytest.raises(MetricError):
        registry.counter("thing_total", labelnames=("b",))


# -- gauges -----------------------------------------------------------------


def test_gauge_up_down_and_high_water(registry):
    g = registry.gauge("active_channels")
    g.inc()
    g.inc()
    g.inc()
    g.dec()
    assert g.value() == 2
    assert g.high_water() == 3
    g.set(0)
    assert g.value() == 0
    assert g.high_water() == 3


@pytest.mark.parametrize("bound", [False, True], ids=["family", "child"])
def test_gauge_high_water_skips_nan(registry, bound):
    g = registry.gauge("level")
    put = g.labels().set if bound else g.set
    put(float("nan"))
    assert math.isnan(g.value())
    assert g.high_water() == 0
    put(3)
    put(1)
    assert g.high_water() == 3
    put(float("nan"))
    assert g.high_water() == 3


# -- histograms --------------------------------------------------------------


def test_histogram_bucket_edges_are_inclusive(registry):
    h = registry.histogram("dur_seconds", buckets=(1.0, 5.0, 10.0))
    h.observe(1.0)   # exactly on the first edge -> le="1"
    h.observe(1.001)  # just over -> le="5"
    h.observe(10.0)  # exactly on the last edge -> le="10"
    h.observe(99.0)  # overflow -> +Inf only
    counts = h.bucket_counts()
    assert counts[1.0] == 1
    assert counts[5.0] == 2  # cumulative
    assert counts[10.0] == 3
    assert counts[float("inf")] == 4
    assert h.count() == 4
    assert h.sum() == pytest.approx(111.001)


@pytest.mark.parametrize("bound", [False, True], ids=["family", "child"])
def test_histogram_counts_nan_in_the_overflow_bucket(registry, bound):
    h = registry.histogram("dur_seconds", buckets=(1.0, 5.0))
    observe = h.labels().observe if bound else h.observe
    observe(float("nan"), exemplar="trace-1")
    assert h.bucket_counts() == {1.0: 0, 5.0: 0, math.inf: 1}
    assert list(h.exemplars()) == [math.inf]


_BOUNDS = st.floats(allow_nan=False, min_value=-1e6, max_value=1e6)


@given(buckets=st.lists(_BOUNDS, min_size=1, max_size=8, unique=True),
       values=st.lists(st.one_of(_BOUNDS, st.sampled_from(
           [math.inf, -math.inf, math.nan, 0.0, -0.0])), max_size=20))
def test_histogram_buckets_match_a_linear_scan(buckets, values):
    h = MetricsRegistry().histogram("x_seconds", buckets=buckets)
    child = h.labels()
    bounds = sorted(buckets)
    want = [0] * (len(bounds) + 1)
    for v in values:
        child.observe(v)
        # the first bound the value does not exceed, else +Inf
        want[next((i for i, b in enumerate(bounds) if v <= b), len(bounds))] += 1
    cumulative = [sum(want[: i + 1]) for i in range(len(want))]
    assert list(h.bucket_counts().values()) == cumulative


def test_histogram_requires_buckets(registry):
    with pytest.raises(MetricError):
        registry.histogram("bad_seconds", buckets=())


def test_histogram_labelled_series_are_independent(registry):
    h = registry.histogram("t_seconds", buckets=(1.0,), labelnames=("op",))
    h.observe(0.5, op="read")
    h.observe(2.0, op="write")
    assert h.count(op="read") == 1
    assert h.bucket_counts(op="read")[1.0] == 1
    assert h.bucket_counts(op="write")[1.0] == 0


# -- exposition --------------------------------------------------------------


def test_render_prometheus_golden():
    registry = MetricsRegistry()
    c = registry.counter("bytes_transferred_total", "Payload bytes moved",
                         labelnames=("direction", "mode"))
    c.inc(1024, direction="store", mode="E")
    c.inc(512, direction="retrieve", mode="E")
    registry.gauge("active_data_channels", "Open data channels").set(2)
    h = registry.histogram("transfer_duration_seconds", "Transfer durations",
                           buckets=(1.0, 10.0))
    h.observe(0.5)
    h.observe(3.0)
    expected = (
        "# HELP active_data_channels Open data channels\n"
        "# TYPE active_data_channels gauge\n"
        "active_data_channels 2\n"
        "# HELP bytes_transferred_total Payload bytes moved\n"
        "# TYPE bytes_transferred_total counter\n"
        'bytes_transferred_total{direction="retrieve",mode="E"} 512\n'
        'bytes_transferred_total{direction="store",mode="E"} 1024\n'
        "# HELP transfer_duration_seconds Transfer durations\n"
        "# TYPE transfer_duration_seconds histogram\n"
        'transfer_duration_seconds_bucket{le="1"} 1\n'
        'transfer_duration_seconds_bucket{le="10"} 2\n'
        'transfer_duration_seconds_bucket{le="+Inf"} 2\n'
        "transfer_duration_seconds_sum 3.5\n"
        "transfer_duration_seconds_count 2\n"
    )
    assert registry.render_prometheus() == expected


def test_render_prometheus_writes_nan_and_infinities(registry):
    g = registry.gauge("level", labelnames=("k",))
    g.set(float("nan"), k="a")
    g.set(-math.inf, k="b")
    g.set(math.inf, k="c")
    out = registry.render_prometheus()
    assert 'level{k="a"} NaN\n' in out
    assert 'level{k="b"} -Inf\n' in out
    assert 'level{k="c"} +Inf\n' in out


def test_render_prometheus_escapes_label_values(registry):
    registry.counter("odd_total", labelnames=("path",)).inc(path='a"b\\c\nd')
    out = registry.render_prometheus()
    assert 'odd_total{path="a\\"b\\\\c\\nd"} 1' in out


def test_render_table_lists_every_series(registry):
    registry.counter("a_total", labelnames=("k",)).inc(5, k="x")
    registry.gauge("b").set(1.5)
    table = registry.render_table(caption="World metrics")
    assert "World metrics" in table
    assert "a_total" in table and "k=x" in table
    assert "b" in table

    # histogram series show as _count/_sum rows
    registry.histogram("h_seconds", buckets=(1.0,)).observe(0.2)
    table = registry.render_table()
    assert "h_seconds_count" in table
    assert "h_seconds_sum" in table


def test_empty_registry_renders_empty(registry):
    assert registry.render_prometheus() == ""
