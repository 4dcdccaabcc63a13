"""Usage metrics: records, collection, aggregation, table rendering."""

from repro.metrics.usage import UsageRecord, UsageCollector, DailyUsage
from repro.metrics.report import render_table, render_series

__all__ = [
    "UsageRecord",
    "UsageCollector",
    "DailyUsage",
    "render_table",
    "render_series",
]
