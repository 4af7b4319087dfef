"""Deterministic metrics primitives for the sourcing→scan→store path.

The pipeline is a long-running measurement system; longitudinal studies
live or die on being able to see what it is doing while it runs —
probe outcomes, admissions, store appends, addresses collected per
day.  This module provides two instrument kinds (:class:`Counter` and
:class:`Histogram` with *fixed* bucket boundaries) behind a
:class:`MetricsRegistry` of labeled series, the one counter store of
that path.

Two properties distinguish this from a wall-clock metrics stack:

* **Simulated time only.**  Nothing here reads ``time.time()``: every
  recorded value is a property of the experiment, not of the host
  machine, and two runs with the same seed produce byte-identical
  snapshots.
* **Registry scoping.**  A process-wide default registry serves ad-hoc
  use, while :func:`use_registry` pushes a fresh registry for the
  duration of one run, which is how ``run_experiment`` isolates the
  metrics of concurrent or repeated experiments.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Boundaries for count-valued observations (e.g. addresses collected
#: per server per simulated day).
COUNT_BUCKETS: Tuple[float, ...] = (
    0, 1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Histogram:
    """A fixed-boundary histogram with ``le`` (≤ boundary) semantics.

    An observation lands in the first bucket whose boundary is >= the
    value; values above the last boundary land in the overflow bucket,
    so ``len(counts) == len(bounds) + 1`` and no observation is lost.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one boundary")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"boundaries must strictly increase: {bounds}")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


#: A series key: metric name plus its sorted label items.
_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class MetricsRegistry:
    """Labeled series of instruments, get-or-create by (name, labels).

    ``registry.counter("probe_attempts_total", protocol="ssh")`` returns
    the same :class:`Counter` on every call with the same name and
    labels; requesting an existing series under a different instrument
    kind (or different histogram boundaries) is an error, so a metric
    name means one thing for the lifetime of the registry.
    """

    def __init__(self) -> None:
        self._series: Dict[_SeriesKey, object] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> _SeriesKey:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def _get_or_create(self, cls, name: str, labels: Dict[str, object],
                       factory):
        key = self._key(name, labels)
        existing = self._series.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r}{dict(key[1])!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}")
            return existing
        instrument = factory()
        self._series[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels, Counter)

    def histogram(self, name: str, buckets: Sequence[float],
                  **labels) -> Histogram:
        bounds = tuple(float(b) for b in buckets)
        histogram = self._get_or_create(Histogram, name, labels,
                                        lambda: Histogram(bounds))
        if histogram.bounds != bounds:
            raise ValueError(
                f"metric {name!r} already registered with boundaries "
                f"{histogram.bounds}, not {bounds}")
        return histogram

    # -- introspection ----------------------------------------------------

    def series(self) -> Iterator[Tuple[str, Dict[str, str], object]]:
        """Every (name, labels, instrument), in deterministic order."""
        for (name, label_items), instrument in sorted(self._series.items()):
            yield name, dict(label_items), instrument

    def find(self, name: str, **labels) -> List[Tuple[Dict[str, str], object]]:
        """Series under ``name`` whose labels are a superset of ``labels``."""
        wanted = {(k, str(v)) for k, v in labels.items()}
        return [(series_labels, instrument)
                for series_name, series_labels, instrument in self.series()
                if series_name == name
                and wanted <= set(series_labels.items())]

    def value(self, name: str, **labels) -> Optional[float]:
        """Counter value of one exact series (None when absent)."""
        instrument = self._series.get(self._key(name, labels))
        return getattr(instrument, "value", None)

    def snapshot(self) -> Dict[str, list]:
        """A JSON-ready, deterministically ordered dump of every series.

        ``gauges`` stays as an empty section, so run reports and
        checkpoints keep their document shape.
        """
        counters, histograms = [], []
        for name, labels, instrument in self.series():
            entry = {"name": name, "labels": labels}
            if isinstance(instrument, Counter):
                entry["value"] = instrument.value
                counters.append(entry)
            else:
                entry.update(
                    bounds=list(instrument.bounds),
                    counts=list(instrument.counts),
                    sum=instrument.sum,
                    count=instrument.count,
                )
                histograms.append(entry)
        return {"counters": counters, "gauges": [],
                "histograms": histograms}


#: The registry stack; the bottom entry is the process-wide default.
_REGISTRY_STACK: List[MetricsRegistry] = [MetricsRegistry()]


def current_registry() -> MetricsRegistry:
    """The innermost active registry (instrumented code records here)."""
    return _REGISTRY_STACK[-1]


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None):
    """Scope instrumentation to ``registry`` (a fresh one by default).

    ``run_experiment`` and every ``repro.api`` entry point wrap their
    work in this, so each run snapshots its own metrics instead of
    bleeding into the process-wide series.
    """
    registry = registry if registry is not None else MetricsRegistry()
    _REGISTRY_STACK.append(registry)
    try:
        yield registry
    finally:
        _REGISTRY_STACK.pop()
