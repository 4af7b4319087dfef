"""Observability: deterministic metrics and run reports.

``repro.obs`` is the layer that makes a run *visible*: counters and
fixed-bucket, count-valued histograms in a process-scoped
:class:`MetricsRegistry`, the one counter store of the
sourcing→scan→store path, fed from the simulated run (never wall
time), and the versioned :class:`RunReport` snapshot every run ends
with.  See DESIGN.md §6 for what is instrumented where.
"""

from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    current_registry,
    use_registry,
)
from repro.obs.runreport import RUN_REPORT_VERSION, RunReport, jsonify

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RUN_REPORT_VERSION",
    "RunReport",
    "current_registry",
    "jsonify",
    "use_registry",
]
