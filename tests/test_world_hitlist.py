"""Unit tests for the TUM-like hitlist builder."""

import pytest

from repro.ipv6 import iid as iidmod
from repro.world import hitlist as hitlist_module
from repro.world.hitlist import HitlistConfig, build_hitlist
from repro.world.population import build_world
from tests.conftest import small_world_config


@pytest.fixture(scope="module")
def built(world):
    return build_hitlist(world), world


class TestComposition:
    def test_public_subset_of_full(self, built):
        hitlist, world = built
        assert hitlist.public <= hitlist.full
        assert len(hitlist.public) < hitlist.full_size

    def test_public_entries_alive(self, built):
        hitlist, world = built
        for value in hitlist.public:
            host = world.network.host(value)
            assert host is not None and host.reachable

    def test_dns_devices_mostly_included(self, built):
        hitlist, world = built
        named = [d.address for d in world.dns_named()]
        included = sum(1 for a in named if a in hitlist.full)
        assert included >= 0.9 * len(named)

    def test_cdn_fronts_all_included(self, built):
        hitlist, world = built
        for front in world.devices_of_type("cdn_front"):
            assert front.address in hitlist.full

    def test_privacy_clients_excluded(self, built):
        """End-user devices without DNS are structurally invisible."""
        hitlist, world = built
        clients = [d for d in world.devices if d.type_name == "client"]
        leaked = sum(1 for d in clients if d.address in hitlist.full)
        assert leaked == 0

    def test_broad_as_coverage(self, built):
        hitlist, world = built
        covered = {asn for value in hitlist.full
                   if (asn := world.asdb.lookup_asn(value)) is not None}
        assert len(covered) == len(world.asdb.systems)

    def test_structured_bias(self, built):
        """The hitlist must skew towards structured IIDs (Figure 1)."""
        hitlist, world = built
        profile = iidmod.profile(hitlist.full)
        assert profile.structured_share > 0.8


class TestConfig:
    def test_no_routers(self, world, monkeypatch):
        rich = build_hitlist(world, HitlistConfig())
        monkeypatch.setattr(hitlist_module, "ROUTERS_PER_AS", 0)
        monkeypatch.setattr(hitlist_module, "TGA_PER_SEED", 0)
        bare = build_hitlist(world, HitlistConfig())
        assert bare.full_size < rich.full_size

    def test_deterministic(self, world):
        assert build_hitlist(world).full == build_hitlist(world).full

    def test_seed_changes_tga(self, world):
        first = build_hitlist(world, HitlistConfig(seed=1))
        second = build_hitlist(world, HitlistConfig(seed=2))
        assert first.full != second.full


class TestStaleness:
    def test_churn_invalidates_entries(self):
        """Rotating prefixes kill hitlist entries — the reason static
        lists are useless for end-user devices (Section 6)."""
        world = build_world(small_world_config())
        hitlist = build_hitlist(world)
        alive_before = sum(
            1 for v in hitlist.public if world.network.host(v) is not None)
        for _ in range(14):
            world.churn.step_day()
        alive_after = sum(
            1 for v in hitlist.public if world.network.host(v) is not None)
        assert alive_after < alive_before
