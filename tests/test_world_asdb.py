"""Unit tests for the AS database."""

import pytest

from repro.ipv6.columnar import AddressColumn
from repro.world.asdb import (
    EYEBALL,
    AsDatabase,
    AutonomousSystem,
    build_asdb,
)


@pytest.fixture()
def db():
    database = AsDatabase()
    database.register(AutonomousSystem(64500, "Eyeball-1", EYEBALL, "DE"),
                      block_count=2)
    database.register(AutonomousSystem(64501, "Host-1", "Content", "US"))
    return database


class TestRegistration:
    def test_duplicate_asn_rejected(self, db):
        with pytest.raises(ValueError):
            db.register(AutonomousSystem(64500, "dup", EYEBALL, "DE"))

    def test_bad_block_count_rejected(self, db):
        with pytest.raises(ValueError):
            db.register(AutonomousSystem(64502, "x", EYEBALL, "DE"),
                        block_count=0)

    def test_blocks_allocated(self, db):
        assert len(db.blocks_of(64500)) == 2
        assert len(db.blocks_of(64501)) == 1

    def test_blocks_disjoint(self, db):
        all_blocks = db.blocks_of(64500) + db.blocks_of(64501)
        assert len(set(all_blocks)) == len(all_blocks)


class TestLookup:
    def test_lookup_inside_block(self, db):
        block = db.blocks_of(64500)[0]
        assert db.lookup(block + 12345).number == 64500
        assert db.lookup_asn(block + 12345) == 64500

    def test_lookup_unrouted(self, db):
        assert db.lookup(0) is None
        assert db.lookup_asn(0) is None

    def test_country_of(self, db):
        block = db.blocks_of(64501)[0]
        assert db.country_of(block + 1) == "US"
        assert db.country_of(0) is None


class TestPrefixFor:
    def test_deterministic(self, db):
        assert db.prefix_for(64500, 5) == db.prefix_for(64500, 5)

    def test_distinct_indices_distinct_prefixes(self, db):
        prefixes = {db.prefix_for(64500, index, 56) for index in range(100)}
        assert len(prefixes) == 100

    def test_prefix_inside_own_block(self, db):
        prefix = db.prefix_for(64500, 3, 48)
        assert db.lookup_asn(prefix) == 64500

    def test_round_robin_over_blocks(self, db):
        first = db.prefix_for(64500, 0, 48)
        second = db.prefix_for(64500, 1, 48)
        assert (first >> 96) != (second >> 96)

    def test_exhaustion_raises(self, db):
        with pytest.raises(ValueError):
            db.prefix_for(64501, 1 << 20, 48)


class TestAggregates:
    def test_category_share(self, db):
        addresses = AddressColumn.from_ints([
            db.blocks_of(64500)[0] + 1,  # eyeball
            db.blocks_of(64501)[0] + 1,  # content
            0])                           # unrouted
        assert db.category_share(addresses, EYEBALL) == pytest.approx(1 / 3)

    def test_category_share_empty(self, db):
        assert db.category_share(AddressColumn(), EYEBALL) == 0.0


class TestBuildAsdb:
    def test_standard_layout(self):
        db = build_asdb(["DE", "US"], eyeballs_per_country=2)
        eyeballs = [s for s in db.systems if s.category == EYEBALL]
        assert len(eyeballs) == 4
        countries = {s.country for s in eyeballs}
        assert countries == {"DE", "US"}

    def test_clouds_have_multiple_blocks(self):
        db = build_asdb(["DE"], cloud_count=2)
        clouds = [s for s in db.systems if s.name.startswith("HyperCloud")]
        assert len(clouds) == 2
        for cloud in clouds:
            assert len(db.blocks_of(cloud.number)) == 4

    def test_deterministic(self):
        import random
        first = build_asdb(["DE", "US"], rng=random.Random(1))
        second = build_asdb(["DE", "US"], rng=random.Random(1))
        assert [s.name for s in first.systems] == \
            [s.name for s in second.systems]
