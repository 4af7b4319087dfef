"""NTP control-plane exposure analyses (the Fig 2/3-style study).

Consumes the ``ntp`` grabs of a :class:`~repro.scan.result.ScanResults`
and produces the two views of the security-configuration story the
monlist scan tells:

* **monlist exposure** — the share of responsive pool servers that
  still answer mode-7 monlist, broken down by advertised software
  group (NTPv3-era, unpatched v4 before 4.2.7p26, patched v4) — the
  patch-level bar chart, Figure 2 style;
* **amplification-factor distribution** — bytes returned per monlist
  request byte, bucketed over the exposed servers, plus the
  mean/maximum headline numbers the DRDoS literature reports — the
  Figure 3 style distribution.

Both reports are frozen dataclasses built by pure functions of the
grab list, and :func:`amplification_table` renders them to the aligned
text artefact the bench commits — byte-identical whatever order the
grabs arrived in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.report.formatting import fmt_float, fmt_int, fmt_pct, render_table
from repro.scan.result import NtpGrab, ScanResults

#: Software groups in report row order.
VERSION_GROUPS = ("ntpv3", "ntpd<4.2.7p26", "ntpd-patched", "unknown")

#: Amplification-factor bucket edges (factors land in ``[lo, hi)``).
BUCKET_EDGES = (1.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0)


def version_group(version: str) -> str:
    """Map an advertised version string onto its report group."""
    if not version:
        return "unknown"
    if version.startswith("xntpd 3") or version.startswith("ntpd 3"):
        return "ntpv3"
    if "4.2.6" in version or "4.2.5" in version:
        return "ntpd<4.2.7p26"
    if version.startswith("ntpd") or version.startswith("xntpd"):
        return "ntpd-patched"
    return "unknown"


@dataclass(frozen=True)
class ExposureRow:
    """One software group's monlist exposure."""

    group: str
    responsive: int
    exposed: int

    @property
    def exposed_share(self) -> float:
        return self.exposed / self.responsive if self.responsive else 0.0


@dataclass(frozen=True)
class MonlistExposureReport:
    """Share of pool servers answering monlist, by software group."""

    label: str
    responsive: int
    exposed: int
    rows: Tuple[ExposureRow, ...]

    @property
    def exposed_share(self) -> float:
        return self.exposed / self.responsive if self.responsive else 0.0


def _ntp_grabs(results: ScanResults) -> List[NtpGrab]:
    """The ``ntp`` bucket (a result set has none until its first
    answered NTP grab)."""
    return results.extra.get("ntp", [])


def monlist_exposure(label: str,
                     results: ScanResults) -> MonlistExposureReport:
    """Assess which responsive servers still answer mode-7 monlist."""
    responsive = [grab for grab in _ntp_grabs(results) if grab.ok]
    counts = {group: [0, 0] for group in VERSION_GROUPS}
    for grab in responsive:
        bucket = counts[version_group(grab.version or "")]
        bucket[0] += 1
        if grab.monlist:
            bucket[1] += 1
    rows = tuple(
        ExposureRow(group=group, responsive=count[0], exposed=count[1])
        for group, count in counts.items() if count[0]
    )
    return MonlistExposureReport(
        label=label,
        responsive=len(responsive),
        exposed=sum(1 for grab in responsive if grab.monlist),
        rows=rows,
    )


@dataclass(frozen=True)
class AmplificationBucket:
    """One bar of the amplification-factor distribution."""

    #: Rendered bucket label, e.g. ``"10–15x"``.
    label: str
    count: int


@dataclass(frozen=True)
class AmplificationReport:
    """Distribution of bytes-out per byte-in over exposed servers."""

    label: str
    samples: int
    buckets: Tuple[AmplificationBucket, ...]
    mean: float
    maximum: float


def amplification_distribution(label: str,
                               results: ScanResults) -> AmplificationReport:
    """Bucket the amplification factors of monlist-answering servers."""
    edges = BUCKET_EDGES
    if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
        raise ValueError(f"bucket edges must strictly increase: {edges!r}")
    factors = sorted(
        grab.amplification for grab in _ntp_grabs(results)
        if grab.ok and grab.monlist and grab.request_bytes > 0
    )
    bounds = [0.0] + list(edges) + [float("inf")]
    labels = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi == float("inf"):
            labels.append(f">={fmt_float(lo, 0)}x")
        else:
            labels.append(f"{fmt_float(lo, 0)}-{fmt_float(hi, 0)}x")
    counts = [0] * (len(bounds) - 1)
    for factor in factors:
        for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if lo <= factor < hi:
                counts[index] += 1
                break
    return AmplificationReport(
        label=label,
        samples=len(factors),
        buckets=tuple(AmplificationBucket(label=text, count=count)
                      for text, count in zip(labels, counts)),
        mean=sum(factors) / len(factors) if factors else 0.0,
        maximum=factors[-1] if factors else 0.0,
    )


def amplification_table(exposure: MonlistExposureReport,
                        distribution: AmplificationReport) -> str:
    """Render both reports as one aligned text artefact.

    A pure function of the two frozen reports; ``tests/
    test_golden_bytes.py`` pins the default study's rendering.
    """
    exposure_rows = [
        [row.group, fmt_int(row.responsive), fmt_int(row.exposed),
         fmt_pct(row.exposed_share)]
        for row in exposure.rows
    ]
    exposure_rows.append([
        "total", fmt_int(exposure.responsive), fmt_int(exposure.exposed),
        fmt_pct(exposure.exposed_share)])
    text = render_table(
        ["software group", "responsive", "answer monlist", "share"],
        exposure_rows,
        title=f"monlist exposure ({exposure.label})")
    text += "\n\n" + render_table(
        ["amplification", "servers"],
        [[bucket.label, fmt_int(bucket.count)]
         for bucket in distribution.buckets],
        title=f"amplification factors ({distribution.label})")
    text += (f"\n\nexposed servers: {fmt_int(distribution.samples)}; "
             f"mean {fmt_float(distribution.mean, 1)}x, "
             f"max {fmt_float(distribution.maximum, 1)}x")
    return text
