"""Quantitative metrics with Prometheus-style text exposition.

The paper's Figure 1 is built from per-transfer usage reports; a
production deployment of this reproduction needs the same numbers as
live series, not post-hoc log queries.  A :class:`MetricsRegistry`
holds three instrument kinds:

* :class:`Counter` — monotone totals (``bytes_transferred_total``);
* :class:`Gauge` — current levels (``active_data_channels``), with a
  high-water mark so tests can assert a level was reached;
* :class:`Histogram` — fixed-bucket distributions
  (``transfer_duration_seconds``), cumulative-``le`` semantics exactly
  as Prometheus defines them.

Labels are passed as keyword arguments and stored as frozen
``(value, ...)`` tuples in declaration order, so series identity is
hashable and deterministic.  :meth:`MetricsRegistry.render_prometheus`
emits the standard ``text/plain; version=0.0.4`` exposition format;
:meth:`MetricsRegistry.render_table` reuses
:func:`repro.metrics.report.render_table` for the human view benchmarks
print.

Metric name conventions used across the codebase: ``*_total`` for
counters, ``*_seconds`` for time histograms, no ``repro_`` prefix (the
registry is already scoped to one world).

Histograms optionally capture **exemplars** (OpenMetrics syntax): an
``observe(value, exemplar=trace_id)`` call remembers the trace id of
the observation per bucket (latest wins — deterministic under seeded
replay), so a p99 bucket in the exposition links straight to the flight
record of the job that landed there.  Exemplar syntax is emitted only
on bucket lines that actually hold one; a registry with no exemplars
renders byte-identical to before.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

#: default buckets for virtual-time operation latencies (seconds)
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0, 3600.0,
)


_INF = math.inf


class MetricError(ValueError):
    """Inconsistent metric declaration or use."""


@dataclass(frozen=True)
class Sample:
    """One exposed series value (helper for rendering and tests)."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float


def _freeze_labels(labelnames: tuple[str, ...], labels: dict[str, Any]) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


@dataclass(frozen=True)
class Exemplar:
    """One trace-linked observation attached to a histogram bucket."""

    trace_id: str
    value: float


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    # HELP lines escape backslash and newline (quotes are legal there)
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _series(name: str, labelnames: tuple[str, ...], labelvalues: tuple[str, ...],
            value: float) -> str:
    if not labelnames:
        return f"{name} {_fmt_value(value)}"
    pairs = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in zip(labelnames, labelvalues)
    )
    return f"{name}{{{pairs}}} {_fmt_value(value)}"


class _Metric:
    """Shared naming/label plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames: tuple[str, ...] = tuple(labelnames)

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if not labels and not self.labelnames:
            return ()
        return _freeze_labels(self.labelnames, labels)

    def samples(self) -> list[Sample]:  # pragma: no cover - overridden
        raise NotImplementedError

    def expose(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


def _bad_increment(name: str, amount: float) -> MetricError:
    """Why a counter refuses ``amount`` (negative, NaN or infinite)."""
    if amount < 0:
        return MetricError(f"counter {name} cannot decrease")
    return MetricError(f"counter {name} needs a finite increment, got {amount!r}")


def _bucket(buckets: tuple[float, ...], value: float) -> int:
    """Index of the first bucket with ``value <= le``; NaN lands in +Inf."""
    return bisect_left(buckets, value) if value == value else len(buckets)


class CounterChild:
    """A counter bound to one labelset: ``inc`` with no label freezing.

    Hot paths (the transfer engine runs thousands of metric updates per
    wall-clock second) resolve labels once via :meth:`Counter.labels`
    and keep the child; each ``inc`` is then a single dict update.
    """

    __slots__ = ("_values", "_key", "_name")

    def __init__(self, counter: "Counter", key: tuple[str, ...]) -> None:
        self._values = counter._values
        self._key = key
        self._name = counter.name

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (finite and >= 0) to the bound series."""
        if not 0 <= amount < _INF:
            raise _bad_increment(self._name, amount)
        self._values[self._key] = self._values.get(self._key, 0.0) + amount


class HistogramChild:
    """A histogram bound to one labelset: ``observe`` with no freezing."""

    __slots__ = ("_histogram", "_key", "_counts")

    def __init__(self, histogram: "Histogram", key: tuple[str, ...]) -> None:
        self._histogram = histogram
        self._key = key
        self._counts = histogram._counts.setdefault(
            key, [0] * (len(histogram.buckets) + 1)
        )

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation on the bound series."""
        h, key = self._histogram, self._key
        i = _bucket(h.buckets, value)
        self._counts[i] += 1
        h._sums[key] = h._sums.get(key, 0.0) + value
        h._totals[key] = h._totals.get(key, 0) + 1
        if exemplar is not None:
            h._exemplars.setdefault(key, {})[i] = Exemplar(exemplar, value)


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def labels(self, **labels: Any) -> CounterChild:
        """A bound child for one labelset (O(1) ``inc`` afterwards)."""
        return CounterChild(self, self._key(labels))

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (finite and >= 0) to one labelled series."""
        if not 0 <= amount < _INF:
            raise _bad_increment(self.name, amount)
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current total for one labelled series (0 if never touched)."""
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum across every labelled series."""
        return sum(self._values.values())

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, tuple(zip(self.labelnames, key)), value)
            for key, value in sorted(self._values.items())
        ]

    def expose(self) -> list[str]:
        return [
            _series(self.name, self.labelnames, key, value)
            for key, value in sorted(self._values.items())
        ]


class GaugeChild:
    """A gauge bound to one labelset: ``set``/``inc``/``dec`` without
    label freezing (same high-water bookkeeping as the parent)."""

    __slots__ = ("_values", "_high_water", "_key")

    def __init__(self, gauge: "Gauge", key: tuple[str, ...]) -> None:
        self._values = gauge._values
        self._high_water = gauge._high_water
        self._key = key

    def set(self, value: float) -> None:
        """Set the bound series to ``value``."""
        value = float(value)
        self._values[self._key] = value
        if value == value:  # a NaN level never becomes the high-water mark
            self._high_water[self._key] = max(self._high_water.get(self._key, value), value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the bound series."""
        self.set(self._values.get(self._key, 0.0) + amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the bound series."""
        self.inc(-amount)


class Gauge(_Metric):
    """A level that can go up and down; remembers its high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}
        self._high_water: dict[tuple[str, ...], float] = {}

    def labels(self, **labels: Any) -> GaugeChild:
        """A bound child for one labelset (O(1) updates afterwards)."""
        return GaugeChild(self, self._key(labels))

    def set(self, value: float, **labels: Any) -> None:
        """Set one labelled series to ``value``."""
        key = self._key(labels)
        value = self._values[key] = float(value)
        if value == value:  # a NaN level never becomes the high-water mark
            self._high_water[key] = max(self._high_water.get(key, value), value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to one labelled series."""
        self.set(self._values.get(self._key(labels), 0.0) + amount, **labels)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        """Subtract ``amount`` from one labelled series."""
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        """Current level for one labelled series (0 if never touched)."""
        return self._values.get(self._key(labels), 0.0)

    def high_water(self, **labels: Any) -> float:
        """Highest level a labelled series ever reached."""
        return self._high_water.get(self._key(labels), 0.0)

    def samples(self) -> list[Sample]:
        return [
            Sample(self.name, tuple(zip(self.labelnames, key)), value)
            for key, value in sorted(self._values.items())
        ]

    def expose(self) -> list[str]:
        return [
            _series(self.name, self.labelnames, key, value)
            for key, value in sorted(self._values.items())
        ]


class Histogram(_Metric):
    """A fixed-bucket distribution with Prometheus ``le`` semantics.

    An observation ``v`` lands in every bucket whose upper bound
    satisfies ``v <= le`` (bounds are inclusive); ``+Inf`` is implicit.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"histogram {name} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name} has duplicate bucket bounds")
        self.buckets = bounds
        # per-labelset: per-bucket (non-cumulative) counts, +Inf overflow, sum, count
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}
        self._totals: dict[tuple[str, ...], int] = {}
        # per-labelset: bucket index -> latest Exemplar (sampling rule:
        # last observation into a bucket keeps its exemplar)
        self._exemplars: dict[tuple[str, ...], dict[int, Exemplar]] = {}

    def labels(self, **labels: Any) -> HistogramChild:
        """A bound child for one labelset (O(1) ``observe`` afterwards)."""
        return HistogramChild(self, self._key(labels))

    def observe(self, value: float, exemplar: str | None = None, **labels: Any) -> None:
        """Record one observation (``exemplar`` is an optional trace id)."""
        key = self._key(labels)
        counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
        i = _bucket(self.buckets, value)
        counts[i] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1
        if exemplar is not None:
            self._exemplars.setdefault(key, {})[i] = Exemplar(exemplar, value)

    def count(self, **labels: Any) -> int:
        """Observations recorded for one labelled series."""
        return self._totals.get(self._key(labels), 0)

    def sum(self, **labels: Any) -> float:
        """Sum of observations for one labelled series."""
        return self._sums.get(self._key(labels), 0.0)

    def bucket_counts(self, **labels: Any) -> dict[float, int]:
        """Cumulative ``{le: count}`` (including ``inf``) for one series."""
        key = self._key(labels)
        counts = self._counts.get(key, [0] * (len(self.buckets) + 1))
        out: dict[float, int] = {}
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out[bound] = running
        out[float("inf")] = running + counts[-1]
        return out

    def exemplars(self, **labels: Any) -> dict[float, Exemplar]:
        """``{le: exemplar}`` for buckets holding one (``inf`` for overflow)."""
        key = self._key(labels)
        stored = self._exemplars.get(key, {})
        bounds = self.buckets + (float("inf"),)
        return {bounds[i]: ex for i, ex in sorted(stored.items())}

    def samples(self) -> list[Sample]:
        out = []
        for key in sorted(self._totals):
            labels = tuple(zip(self.labelnames, key))
            out.append(Sample(self.name + "_count", labels, self._totals[key]))
            out.append(Sample(self.name + "_sum", labels, self._sums[key]))
        return out

    def _exemplar_suffix(self, key: tuple[str, ...], index: int) -> str:
        ex = self._exemplars.get(key, {}).get(index)
        if ex is None:
            return ""
        return (
            f' # {{trace_id="{_escape_label_value(ex.trace_id)}"}}'
            f" {_fmt_value(ex.value)}"
        )

    def expose(self) -> list[str]:
        lines = []
        bucket_labelnames = self.labelnames + ("le",)
        for key in sorted(self._totals):
            running = 0
            counts = self._counts[key]
            for i, (bound, n) in enumerate(zip(self.buckets, counts)):
                running += n
                lines.append(
                    _series(self.name + "_bucket", bucket_labelnames,
                            key + (_fmt_value(bound),), running)
                    + self._exemplar_suffix(key, i)
                )
            lines.append(
                _series(self.name + "_bucket", bucket_labelnames,
                        key + ("+Inf",), running + counts[-1])
                + self._exemplar_suffix(key, len(self.buckets))
            )
            lines.append(_series(self.name + "_sum", self.labelnames, key, self._sums[key]))
            lines.append(_series(self.name + "_count", self.labelnames, key,
                                 self._totals[key]))
        return lines


class MetricsRegistry:
    """One world's metric namespace.

    ``counter``/``gauge``/``histogram`` are get-or-create: instrumented
    code calls them at the point of use and shares series with every
    other caller that declares the same name, provided kind and label
    names agree (a mismatch raises :class:`MetricError` — two meanings
    for one name is a bug).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def __iter__(self) -> Iterator[_Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> _Metric | None:
        """The registered metric, or None."""
        return self._metrics.get(name)

    def _declare(self, cls, name: str, help: str, labelnames: Sequence[str],
                 **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"{name} already registered as a {existing.kind}, not a {cls.kind}"
                )
            if existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"{name} registered with labels {existing.labelnames}, "
                    f"got {tuple(labelnames)}"
                )
            return existing
        metric = cls(name, help, labelnames=labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a counter."""
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge."""
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        metric = self._declare(Histogram, name, help, labelnames, buckets=buckets)
        assert isinstance(metric, Histogram)
        if metric.buckets != tuple(sorted(float(b) for b in buckets)):
            raise MetricError(f"{name} registered with different buckets")
        return metric

    # -- exposition -----------------------------------------------------------

    def samples(self) -> list[Sample]:
        """Every series value, for programmatic scraping in tests."""
        out: list[Sample] = []
        for name in sorted(self._metrics):
            out.extend(self._metrics[name].samples())
        return out

    def render_prometheus(self) -> str:
        """The standard text exposition format (``# HELP``/``# TYPE`` + series)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def render_table(self, caption: str = "Metrics") -> str:
        """One row per labelled series (histograms show count and sum)."""
        from repro.metrics.report import render_table

        rows = [
            [s.name, ", ".join(f"{k}={v}" for k, v in s.labels), s.value]
            for s in self.samples()
        ]
        return render_table(caption, ["metric", "labels", "value"], rows)
