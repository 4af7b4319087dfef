"""Tests for the DNS zone and its DDNS integration with churn/hitlist."""

import pytest

from repro.ipv6 import parse
from repro.net.dns import DnsZone
from repro.world import hitlist as hitlist_module
from repro.world.hitlist import HitlistConfig, build_hitlist
from repro.world.population import build_world
from tests.conftest import small_world_config

A1 = parse("2001:db8::1")
A2 = parse("2001:db8::2")


class TestZone:
    def test_register_and_resolve(self):
        zone = DnsZone()
        zone.register("host.sim", A1)
        assert zone.resolve("host.sim") == A1
        assert zone.resolve("nope.sim") is None
        assert "host.sim" in zone
        assert len(zone) == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            DnsZone().register("", A1)

    def test_update_keeps_history(self):
        zone = DnsZone()
        zone.register("host.sim", A1)
        zone.update("host.sim", A2, now=100.0)
        assert zone.resolve("host.sim") == A2
        assert zone.resolve_stale("host.sim") == A1
        assert zone.record("host.sim").updated_at == 100.0

    def test_update_unknown_raises(self):
        with pytest.raises(KeyError):
            DnsZone().update("nope.sim", A1)

    def test_noop_update_keeps_history_clean(self):
        zone = DnsZone()
        zone.register("host.sim", A1)
        zone.update("host.sim", A1)
        assert zone.record("host.sim").previous is None
        assert zone.resolve_stale("host.sim") == A1

    def test_reregister_behaves_like_update(self):
        zone = DnsZone()
        zone.register("host.sim", A1)
        zone.register("host.sim", A2)
        assert zone.resolve("host.sim") == A2
        assert zone.resolve_stale("host.sim") == A1


class TestWorldIntegration:
    def test_dns_named_devices_have_records(self, world):
        for device in world.dns_named():
            name = device.labels.get("dns_name")
            assert name is not None
            assert world.dns.resolve(name) == device.address

    def test_ddns_updates_on_churn(self):
        world = build_world(small_world_config())
        # Find a DNS-named device on a *dynamic* premises.
        target = None
        for site in world.premises:
            if site.rotation_rate == 0:
                continue
            for device in site.devices:
                if "dns_name" in device.labels:
                    target = device
                    break
            if target:
                break
        if target is None:
            pytest.skip("no dynamic DNS-named device at this seed")
        name = target.labels["dns_name"]
        old = target.address
        for _ in range(20):
            world.churn.step_day()
            if target.address != old:
                break
        assert target.address != old
        assert world.dns.resolve(name) == target.address
        assert world.churn.ddns_updates > 0

    def test_hitlist_contains_stale_ddns_targets(self, monkeypatch):
        """With heavy staleness, some list entries are dead previous
        addresses — real hitlists carry these too."""
        world = build_world(small_world_config())
        for _ in range(10):
            world.churn.step_day()
        monkeypatch.setattr(hitlist_module, "ROUTERS_PER_AS", 0)
        monkeypatch.setattr(hitlist_module, "TGA_PER_SEED", 0)
        monkeypatch.setattr(hitlist_module, "DDNS_STALENESS", 1.0)
        stale_list = build_hitlist(world, HitlistConfig())
        monkeypatch.setattr(hitlist_module, "DDNS_STALENESS", 0.0)
        fresh_list = build_hitlist(world, HitlistConfig())
        assert stale_list.full != fresh_list.full
        # Stale entries are less often live.
        assert len(stale_list.public) <= len(fresh_list.public)
