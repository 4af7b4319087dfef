"""Tests for the Figure 1 structure analysis."""

import pytest

from repro.analysis import structure
from repro.ipv6 import eui64
from repro.ipv6.address import with_iid
from repro.world.asdb import EYEBALL, AsDatabase, AutonomousSystem


@pytest.fixture()
def asdb():
    db = AsDatabase()
    db.register(AutonomousSystem(1, "Eyeball", EYEBALL, "DE"))
    db.register(AutonomousSystem(2, "Hosting", "Content", "US"))
    return db


class TestAnalyze:
    def test_structured_servers(self, asdb):
        block = asdb.blocks_of(2)[0]
        addresses = [block + index for index in range(1, 11)]
        report = structure.analyze("servers", addresses, asdb)
        assert report.total == 10
        assert report.structured_share == 1.0
        assert report.eyeball_as_share == 0.0

    def test_eyeball_clients(self, asdb):
        block = asdb.blocks_of(1)[0]
        addresses = [with_iid(block, 0x8D4F19C277ABE000 + i)
                     for i in range(5)]
        report = structure.analyze("clients", addresses, asdb)
        assert report.high_entropy_share == 1.0
        assert report.eyeball_as_share == 1.0

    def test_eui64_share(self, asdb):
        block = asdb.blocks_of(1)[0]
        addresses = [with_iid(block, eui64.mac_to_iid(0xB827EB000000 + i))
                     for i in range(4)]
        report = structure.analyze("pis", addresses, asdb)
        assert report.eui64_share == 1.0

    def test_empty_dataset(self, asdb):
        report = structure.analyze("empty", [], asdb)
        assert report.total == 0
        assert report.structured_share == 0.0


def compare(reports):
    """Figure 1 as nested dicts: ``{dataset: {class: share, ...}}``."""
    table = {}
    for report in reports:
        row = dict(report.class_shares)
        row["cable-dsl-isp"] = report.eyeball_as_share
        table[report.label] = row
    return table


class TestCompare:
    def test_nested_dict(self, asdb):
        block = asdb.blocks_of(1)[0]
        reports = [
            structure.analyze("a", [block + 1], asdb),
            structure.analyze("b", [block + 0x10000], asdb),
        ]
        table = compare(reports)
        assert set(table) == {"a", "b"}
        assert "cable-dsl-isp" in table["a"]
        assert table["a"]["low-byte"] == 1.0
