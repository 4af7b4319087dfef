"""Observability: deterministic metrics and run reports.

``repro.obs`` is the layer that makes the staged runtime *visible*:
counters, gauges and fixed-bucket histograms in a process-scoped
:class:`MetricsRegistry`, fed from the simulated clock (never wall
time), and the versioned :class:`RunReport` snapshot every run ends
with.  See DESIGN.md §6 for what is instrumented where.
"""

from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    current_registry,
    use_registry,
)
from repro.obs.runreport import RUN_REPORT_VERSION, RunReport, jsonify

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "RUN_REPORT_VERSION",
    "RunReport",
    "current_registry",
    "jsonify",
    "use_registry",
]
