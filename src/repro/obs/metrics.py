"""Deterministic metrics primitives for the staged runtime.

The pipeline is a long-running measurement system; longitudinal studies
live or die on being able to see what it is doing while it runs — queue
depths, drop rates, per-protocol scan latencies.  This module provides
the three classic instrument kinds (:class:`Counter`, :class:`Gauge`,
:class:`Histogram` with *fixed* bucket boundaries) behind a
:class:`MetricsRegistry` of labeled series, plus a :class:`Span` timer.

Two properties distinguish this from a wall-clock metrics stack:

* **Simulated time only.**  Spans and latency histograms are fed from
  :mod:`repro.net.clock` — never ``time.time()`` — so every recorded
  timing is a property of the experiment, not of the host machine, and
  two runs with the same seed produce byte-identical snapshots.
* **Registry scoping.**  A process-wide default registry serves ad-hoc
  use, while :func:`use_registry` pushes a fresh registry for the
  duration of one run, which is how ``run_experiment`` isolates the
  metrics of concurrent or repeated experiments.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Default latency boundaries (simulated seconds): spans the engine's
#: politeness delays (10 s – 10 min) down to sub-millisecond queue hops.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0,
)

#: Default boundaries for count-valued observations (e.g. addresses
#: collected per server per simulated day).
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


class Gauge:
    """A value that can move both ways (queue depth, high-water marks)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is a new high-water mark."""
        if value > self.value:
            self.value = value


class Histogram:
    """A fixed-boundary histogram with ``le`` (≤ boundary) semantics.

    An observation lands in the first bucket whose boundary is >= the
    value; values above the last boundary land in the overflow bucket,
    so ``len(counts) == len(bounds) + 1`` and no observation is lost.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "_max")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one boundary")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"boundaries must strictly increase: {bounds}")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self._max: float = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket boundary at quantile ``q`` (0 for an empty series).

        Bucketed quantiles are estimates: the answer is the boundary of
        the bucket containing the q-th observation (the observed maximum
        for the overflow bucket), which is exact enough for the p50/p99
        reporting the benches do.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = max(1, int(q * self.count + 0.5))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self._max
        return self._max

    @classmethod
    def merged(cls, histograms: Sequence["Histogram"]) -> "Histogram":
        """Sum several same-boundary histograms into one (for benches)."""
        if not histograms:
            raise ValueError("nothing to merge")
        first = histograms[0]
        merged = cls(first.bounds)
        for histogram in histograms:
            if histogram.bounds != first.bounds:
                raise ValueError("cannot merge histograms with different "
                                 f"bounds: {histogram.bounds} vs {first.bounds}")
            for index, bucket_count in enumerate(histogram.counts):
                merged.counts[index] += bucket_count
            merged.sum += histogram.sum
            merged.count += histogram.count
            merged._max = max(merged._max, histogram._max)
        return merged


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

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels, Gauge)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        bounds = tuple(float(b) for b in buckets) if buckets else LATENCY_BUCKETS
        histogram = self._get_or_create(Histogram, name, labels,
                                        lambda: Histogram(bounds))
        if histogram.bounds != bounds:
            raise ValueError(
                f"metric {name!r} already registered with boundaries "
                f"{histogram.bounds}, not {bounds}")
        return histogram

    def span(self, name: str, clock, **labels) -> "Span":
        """A :class:`Span` feeding the named latency histogram."""
        return Span(clock, self.histogram(name, **labels))

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
        """Counter/gauge value of one exact series (None when absent)."""
        instrument = self._series.get(self._key(name, labels))
        return getattr(instrument, "value", None)

    def snapshot(self) -> Dict[str, list]:
        """A JSON-ready, deterministically ordered dump of every series."""
        counters, gauges, histograms = [], [], []
        for name, labels, instrument in self.series():
            entry = {"name": name, "labels": labels}
            if isinstance(instrument, Counter):
                entry["value"] = instrument.value
                counters.append(entry)
            elif isinstance(instrument, Gauge):
                entry["value"] = instrument.value
                gauges.append(entry)
            else:
                entry.update(
                    bounds=list(instrument.bounds),
                    counts=list(instrument.counts),
                    sum=instrument.sum,
                    count=instrument.count,
                )
                histograms.append(entry)
        return {"counters": counters, "gauges": gauges,
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


class Span:
    """Times a ``with`` block on a virtual clock, feeding a histogram.

    The clock is any object with a ``now()`` method — in this codebase
    always :class:`repro.net.clock.VirtualClock`, never wall time, so
    span durations are deterministic simulated seconds.
    """

    __slots__ = ("clock", "histogram", "elapsed", "_start")

    def __init__(self, clock, histogram: Optional[Histogram] = None) -> None:
        self.clock = clock
        self.histogram = histogram
        self.elapsed: Optional[float] = None
        self._start: float = 0.0

    def __enter__(self) -> "Span":
        self._start = self.clock.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = self.clock.now() - self._start
        if self.histogram is not None:
            self.histogram.observe(self.elapsed)
