"""Versioned run reports: config + metrics + headline results.

Every run of the pipeline ends by snapshotting its metrics registry
into a :class:`RunReport` — one JSON-shaped document carrying the exact
configuration that produced the run, the full metrics snapshot, and the
headline result tables.  The shape is stable
(``{"command", "version", "config", "metrics", "tables"}``) so the CLI's
``--format json`` output, the ``repro.api`` result objects, and the
JSONL files written by :func:`repro.io.save_run_report` all agree, and
two runs can be diffed series by series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.obs.metrics import MetricsRegistry

#: Bump when the report document shape changes incompatibly.
RUN_REPORT_VERSION = 1


def jsonify(value: Any) -> Any:
    """Normalize a value to plain JSON types (tuples → lists, keys → str).

    Applied to every report field so a report built in-process compares
    equal to the same report after a JSON round trip — the property the
    api-vs-CLI tests pin.
    """
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonify(item) for item in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class RunReport:
    """The uniform result document every command and api call produces."""

    command: str
    config: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    tables: Dict[str, Any] = field(default_factory=dict)
    version: int = RUN_REPORT_VERSION

    @classmethod
    def build(cls, command: str, config: Any,
              registry: MetricsRegistry,
              tables: Dict[str, Any]) -> "RunReport":
        """Snapshot ``registry`` into a normalized report."""
        return cls(
            command=command,
            config=jsonify(config),
            metrics=jsonify(registry.snapshot()),
            tables=jsonify(tables),
        )

    def as_document(self) -> Dict[str, Any]:
        """The stable top-level JSON schema."""
        return {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "metrics": self.metrics,
            "tables": self.tables,
        }

    # -- comparison -------------------------------------------------------

    def counter_values(self) -> Dict[str, float]:
        """Flat ``name{labels}`` → value map over counters and gauges."""
        values: Dict[str, float] = {}
        for kind in ("counters", "gauges"):
            for entry in self.metrics.get(kind, ()):
                labels = ",".join(f"{k}={v}"
                                  for k, v in sorted(entry["labels"].items()))
                values[f"{entry['name']}{{{labels}}}"] = entry["value"]
        return values

    def diff_metrics(self, other: "RunReport") -> Dict[str, float]:
        """Per-series value deltas (self − other); zero deltas omitted.

        The reason reports are versioned and deterministic: comparing
        two campaigns (or two probe profiles) is a dict of numbers, not
        a scroll through two logs.
        """
        ours, theirs = self.counter_values(), other.counter_values()
        deltas: Dict[str, float] = {}
        for series in sorted(set(ours) | set(theirs)):
            delta = ours.get(series, 0) - theirs.get(series, 0)
            if delta:
                deltas[series] = delta
        return deltas
