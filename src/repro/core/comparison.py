"""Dataset comparison — the machinery behind Table 1.

Compares address sets (our NTP collection, an R&L-style collection,
and the TUM-like hitlist variants) on the metrics the paper reports:
distinct addresses, covering /48 networks and ASes, pairwise overlaps,
and median address density per /48 and per AS.

Each dataset is held as a deduplicated, sorted
:class:`~repro.ipv6.columnar.AddressColumn`: per-/48 and per-AS counts
come from the columnar bucketing kernel (the AS registry is /32
granular, so grouping by /32 and resolving one lookup per distinct
network is exactly equal to the seed-era per-address loop), and address
overlaps are sorted-column intersections instead of
``set(left) & set(right)``.  A dataset's per-/48 and per-AS counts are
computed once, at first use, and shared by its summary and every
overlap it takes part in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.ipv6.columnar import AddressColumn
from repro.world.asdb import AsDatabase


@dataclass(frozen=True)
class DatasetSummary:
    """One column of Table 1."""

    label: str
    address_count: int
    net48_count: int
    as_count: int
    median_ips_per_48: float
    median_ips_per_as: float


@dataclass(frozen=True)
class OverlapSummary:
    """Overlap rows between a reference dataset and another."""

    other_label: str
    address_overlap: int
    net48_overlap: int
    as_overlap: int


class DatasetComparison:
    """Computes Table 1 for any number of labelled address sets."""

    def __init__(self, asdb: AsDatabase) -> None:
        self.asdb = asdb
        self._columns: Dict[str, AddressColumn] = {}
        #: label -> (per-/48 counts, per-AS counts), see :meth:`_counts`.
        self._count_cache: Dict[str, Tuple[Dict[int, int],
                                           Dict[int, int]]] = {}

    def add(self, label: str, addresses: Iterable[int]) -> None:
        if label in self._columns:
            raise ValueError(f"dataset {label!r} already added")
        self._columns[label] = AddressColumn.coerce(addresses).dedup()

    @property
    def labels(self) -> List[str]:
        return list(self._columns)

    def addresses(self, label: str) -> frozenset:
        return frozenset(self._columns[label])

    def column(self, label: str) -> AddressColumn:
        """The dataset as a sorted-unique packed column."""
        return self._columns[label]

    # -- per-dataset metrics ------------------------------------------------

    def _counts(self, label: str) -> Tuple[Dict[int, int], Dict[int, int]]:
        """``(per48, per_as)``: the dataset's address count per /48 key
        and per routed AS, computed at the first call for ``label``."""
        counts = self._count_cache.get(label)
        if counts is None:
            column = self._columns[label]
            counts = self._count_cache[label] = (
                column.network_key_counts(48), self.asdb.as_counts(column))
        return counts

    def summary(self, label: str) -> DatasetSummary:
        per48, per_as = self._counts(label)
        return DatasetSummary(
            label=label,
            address_count=len(self._columns[label]),
            net48_count=len(per48),
            as_count=len(per_as),
            median_ips_per_48=_median(per48.values()),
            median_ips_per_as=_median(per_as.values()),
        )

    # -- overlaps ----------------------------------------------------------

    def overlap(self, reference: str, other: str) -> OverlapSummary:
        ref, oth = self._columns[reference], self._columns[other]
        ref48, ref_as = self._counts(reference)
        oth48, oth_as = self._counts(other)
        return OverlapSummary(
            other_label=other,
            address_overlap=ref.intersection_count(oth),
            net48_overlap=len(ref48.keys() & oth48.keys()),
            as_overlap=len(ref_as.keys() & oth_as.keys()),
        )

    def table(self, reference: str) -> "ComparisonTable":
        """Full Table 1: every dataset + overlaps against ``reference``."""
        if reference not in self._columns:
            raise KeyError(reference)
        summaries = [self.summary(label) for label in self._columns]
        overlaps = [self.overlap(reference, label)
                    for label in self._columns if label != reference]
        return ComparisonTable(reference=reference, summaries=summaries,
                               overlaps=overlaps)


@dataclass(frozen=True)
class ComparisonTable:
    """Rendered-friendly Table 1 contents."""

    reference: str
    summaries: Sequence[DatasetSummary]
    overlaps: Sequence[OverlapSummary]

    def summary_for(self, label: str) -> DatasetSummary:
        for summary in self.summaries:
            if summary.label == label:
                return summary
        raise KeyError(label)

    def overlap_for(self, label: str) -> OverlapSummary:
        for overlap in self.overlaps:
            if overlap.other_label == label:
                return overlap
        raise KeyError(label)


def _median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2
