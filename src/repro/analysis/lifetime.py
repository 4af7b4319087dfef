"""Address-lifetime analysis (the dynamics behind Section 6).

The paper's core operational argument — NTP-sourced addresses must be
scanned in real time because "a list would be outdated almost
immediately" — is a statement about address *lifetimes*.  This module
quantifies them from a collected dataset: how long each address kept
appearing, how many were one-shot sightings, and the implied daily
turnover of the collected population.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List

from repro.core.collector import CollectedDataset
from repro.net.clock import DAY

#: Span, in days, from which an address counts as long-lived.
LONG_DAYS = 7.0

#: Days after first sight at which the survival curve is read.
DAY_POINTS = (1, 3, 7, 14, 21)


@dataclass(frozen=True)
class LifetimeReport:
    """Observation-span statistics of one collected dataset."""

    total_addresses: int
    #: Addresses seen in exactly one request burst (span == 0).
    single_sighting: int
    median_span: float
    mean_span: float
    max_span: float
    #: Share of addresses whose span covers at least ``long_days`` days
    #: (:data:`LONG_DAYS`).
    long_lived_share: float
    long_days: float

    @property
    def single_sighting_share(self) -> float:
        if self.total_addresses == 0:
            return 0.0
        return self.single_sighting / self.total_addresses

    @property
    def median_span_days(self) -> float:
        return self.median_span / DAY


def analyze(dataset: CollectedDataset) -> LifetimeReport:
    """Compute lifetime statistics over every collected address."""
    long_days = LONG_DAYS
    spans: List[float] = []
    single = 0
    for observation in dataset.observations.values():
        span = observation.last_seen - observation.first_seen
        spans.append(span)
        if span == 0.0:
            single += 1
    if not spans:
        return LifetimeReport(
            total_addresses=0, single_sighting=0, median_span=0.0,
            mean_span=0.0, max_span=0.0, long_lived_share=0.0,
            long_days=long_days)
    long_lived = sum(1 for span in spans if span >= long_days * DAY)
    return LifetimeReport(
        total_addresses=len(spans),
        single_sighting=single,
        median_span=float(statistics.median(spans)),
        mean_span=sum(spans) / len(spans),
        max_span=max(spans),
        long_lived_share=long_lived / len(spans),
        long_days=long_days,
    )


def survival_curve(dataset: CollectedDataset) -> Dict[int, float]:
    """Share of addresses still observed ``d`` days after first sight.

    The complement of this curve is the staleness a ``d``-day-old
    target list suffers — the quantity the real-time-scanning ablation
    measures from the scanning side.
    """
    total = len(dataset.observations)
    if total == 0:
        return {day: 0.0 for day in DAY_POINTS}
    curve: Dict[int, float] = {}
    for day in DAY_POINTS:
        threshold = day * DAY
        alive = sum(
            1 for observation in dataset.observations.values()
            if observation.last_seen - observation.first_seen >= threshold)
        curve[day] = alive / total
    return curve


def turnover_rate(dataset: CollectedDataset) -> float:
    """New-address fraction per collection day (steady-state churn).

    1.0 means the collected population is completely fresh every day;
    values near 0 mean a static population (a hitlist would work).
    """
    histogram = dataset.new_addresses_per_day()
    if len(histogram) <= 1:
        return 0.0
    days = sorted(histogram)
    tail = [histogram[day] for day in days[1:]]
    return (sum(tail) / len(tail)) / max(1, len(dataset))
