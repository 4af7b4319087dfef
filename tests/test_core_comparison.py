"""Unit tests for the Table 1 dataset comparator."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comparison import (
    ComparisonTable,
    DatasetComparison,
    DatasetSummary,
    OverlapSummary,
    _median,
)
from repro.ipv6.columnar import AddressColumn
from repro.world.asdb import EYEBALL, AsDatabase, AutonomousSystem


@pytest.fixture()
def asdb():
    db = AsDatabase()
    db.register(AutonomousSystem(1, "A", EYEBALL, "DE"))
    db.register(AutonomousSystem(2, "B", "Content", "US"))
    return db


def _addrs(asdb, asn, count, offset=0):
    block = asdb.blocks_of(asn)[0]
    return [block + offset + index for index in range(1, count + 1)]


class TestSummaries:
    def test_address_and_network_counts(self, asdb):
        comparison = DatasetComparison(asdb)
        comparison.add("x", _addrs(asdb, 1, 5))
        summary = comparison.summary("x")
        assert summary.address_count == 5
        assert summary.net48_count == 1
        assert summary.as_count == 1
        assert summary.median_ips_per_48 == 5.0
        assert summary.median_ips_per_as == 5.0

    def test_median_across_networks(self, asdb):
        comparison = DatasetComparison(asdb)
        step48 = 1 << 80
        addresses = _addrs(asdb, 1, 3) + \
            [asdb.blocks_of(1)[0] + step48 + 1]
        comparison.add("x", addresses)
        summary = comparison.summary("x")
        assert summary.net48_count == 2
        assert summary.median_ips_per_48 == 2.0

    def test_unrouted_excluded_from_as_stats(self, asdb):
        comparison = DatasetComparison(asdb)
        comparison.add("x", _addrs(asdb, 1, 2) + [0])
        summary = comparison.summary("x")
        assert summary.address_count == 3
        assert summary.as_count == 1

    def test_duplicate_label_rejected(self, asdb):
        comparison = DatasetComparison(asdb)
        comparison.add("x", [])
        with pytest.raises(ValueError):
            comparison.add("x", [])


class TestOverlaps:
    def test_overlap_counts(self, asdb):
        comparison = DatasetComparison(asdb)
        shared = _addrs(asdb, 1, 2)
        comparison.add("left", shared + _addrs(asdb, 2, 3))
        comparison.add("right", shared + _addrs(asdb, 2, 2, offset=100))
        overlap = comparison.overlap("left", "right")
        assert overlap.address_overlap == 2
        assert overlap.net48_overlap == 2  # AS1 /48 + AS2 /48
        assert overlap.as_overlap == 2

    def test_disjoint_sets(self, asdb):
        comparison = DatasetComparison(asdb)
        comparison.add("left", _addrs(asdb, 1, 2))
        comparison.add("right", _addrs(asdb, 2, 2))
        overlap = comparison.overlap("left", "right")
        assert overlap.address_overlap == 0
        assert overlap.as_overlap == 0


class TestTable:
    def test_full_table(self, asdb):
        comparison = DatasetComparison(asdb)
        comparison.add("ntp", _addrs(asdb, 1, 3))
        comparison.add("hitlist", _addrs(asdb, 2, 2))
        table = comparison.table("ntp")
        assert {s.label for s in table.summaries} == {"ntp", "hitlist"}
        assert len(table.overlaps) == 1
        assert table.summary_for("ntp").address_count == 3
        assert table.overlap_for("hitlist").address_overlap == 0

    def test_missing_label_raises(self, asdb):
        comparison = DatasetComparison(asdb)
        comparison.add("ntp", [])
        table = comparison.table("ntp")
        with pytest.raises(KeyError):
            table.summary_for("nope")
        with pytest.raises(KeyError):
            table.overlap_for("nope")


def _fresh_table(asdb, datasets, reference):
    """Table 1 recomputed per address from plain sets, with no column
    or count shared between rows."""
    def counts(label):
        distinct = set(datasets[label])
        per48 = Counter(address >> 80 for address in distinct)
        per_as = Counter(asdb.lookup_asn(address) for address in distinct
                         if asdb.lookup_asn(address) is not None)
        return distinct, per48, per_as

    summaries = []
    for label in datasets:
        distinct, per48, per_as = counts(label)
        summaries.append(DatasetSummary(
            label=label, address_count=len(distinct),
            net48_count=len(per48), as_count=len(per_as),
            median_ips_per_48=_median(per48.values()),
            median_ips_per_as=_median(per_as.values())))
    ref = counts(reference)
    overlaps = []
    for label in datasets:
        if label != reference:
            other = counts(label)
            overlaps.append(OverlapSummary(
                other_label=label,
                address_overlap=len(ref[0] & other[0]),
                net48_overlap=len(ref[1].keys() & other[1].keys()),
                as_overlap=len(ref[2].keys() & other[2].keys())))
    return ComparisonTable(reference=reference, summaries=summaries,
                           overlaps=overlaps)


def _address(asdb):
    """An address in AS 1 or AS 2 (or unrouted), in one of a few /48s."""
    return st.builds(
        lambda asn, net48, low: (asdb.blocks_of(asn)[0] if asn else 0)
        + (net48 << 80) + low,
        st.sampled_from((0, 1, 2)), st.integers(0, 3), st.integers(0, 40))


class TestCountsComputedOnce:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tables_match_a_fresh_recomputation(self, data):
        """Every reference's table, in turn, on one comparator equals
        Table 1 recomputed from fresh sets."""
        asdb = AsDatabase()
        asdb.register(AutonomousSystem(1, "A", EYEBALL, "DE"))
        asdb.register(AutonomousSystem(2, "B", "Content", "US"))
        labels = data.draw(st.lists(st.sampled_from("abcde"), min_size=1,
                                    max_size=5, unique=True))
        datasets = {label: data.draw(st.lists(_address(asdb), max_size=30))
                    for label in labels}
        comparison = DatasetComparison(asdb)
        for label, addresses in datasets.items():
            comparison.add(label, addresses)
        order = data.draw(st.permutations(labels))
        for reference in order:
            assert comparison.table(reference) == \
                _fresh_table(asdb, datasets, reference)

    def test_each_count_is_computed_once_per_dataset(self, asdb,
                                                     monkeypatch):
        comparison = DatasetComparison(asdb)
        for index, label in enumerate(("ntp", "rl", "full", "public")):
            comparison.add(label, _addrs(asdb, 1 + index % 2, 3 + index))
        calls = Counter()
        as_counts = asdb.as_counts
        key_counts = AddressColumn.network_key_counts

        def counted_as(column):
            calls["as", id(column)] += 1
            return as_counts(column)

        def counted_keys(column, level):
            calls[level, id(column)] += 1
            return key_counts(column, level)

        monkeypatch.setattr(asdb, "as_counts", counted_as)
        monkeypatch.setattr(AddressColumn, "network_key_counts",
                            counted_keys)
        comparison.table("ntp")
        comparison.table("rl")
        assert calls == Counter(
            (kind, id(comparison.column(label)))
            for kind in ("as", 32, 48) for label in comparison.labels)
