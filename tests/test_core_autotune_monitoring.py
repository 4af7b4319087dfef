"""Tests for netspeed auto-tuning and in-campaign pool monitoring."""

import pytest

from repro.core import campaign as campaign_module
from repro.core.campaign import CampaignConfig, CollectionCampaign


class TestAutotune:
    def test_weight_rises_until_target(self, fresh_world):
        campaign = CollectionCampaign(
            fresh_world, CampaignConfig(days=10, netspeed=200,
                                        wire_fraction=0.0, seed=5))
        log = campaign.autotune_netspeed(10_000_000, max_days=3)
        assert len(log) == 3  # target unreachable -> tuned every round
        assert log[-1]["netspeed"] > log[0]["netspeed"]
        weights = {campaign.pool.server(a).netspeed
                   for a in campaign.capture_servers}
        assert weights == {200 * 2 ** 3}

    def test_stops_when_target_met(self, fresh_world):
        campaign = CollectionCampaign(
            fresh_world, CampaignConfig(days=10, netspeed=4000,
                                        wire_fraction=0.0, seed=5))
        log = campaign.autotune_netspeed(1, max_days=5)
        assert len(log) == 1  # first observed day already suffices
        assert log[0]["observed_requests"] >= 1

    def test_higher_weight_collects_more(self, fresh_world):
        """The tuning knob actually moves collection volume."""
        from repro.world.population import build_world
        from tests.conftest import small_world_config

        low_world = fresh_world
        low = CollectionCampaign(
            low_world, CampaignConfig(days=3, netspeed=300,
                                      wire_fraction=0.0, seed=9))
        low.run()
        high_world = build_world(small_world_config())
        high = CollectionCampaign(
            high_world, CampaignConfig(days=3, netspeed=30_000,
                                       wire_fraction=0.0, seed=9))
        high.run()
        assert high.dataset.total_requests > low.dataset.total_requests

    def test_ceiling_respected(self, fresh_world, monkeypatch):
        monkeypatch.setattr(campaign_module, "NETSPEED_CEILING", 2000)
        campaign = CollectionCampaign(
            fresh_world, CampaignConfig(days=10, netspeed=900,
                                        wire_fraction=0.0, seed=5))
        campaign.autotune_netspeed(10_000_000, max_days=4)
        for address in campaign.capture_servers:
            assert campaign.pool.server(address).netspeed <= 2000

    def test_invalid_target(self, fresh_world):
        campaign = CollectionCampaign(fresh_world, CampaignConfig(days=1))
        with pytest.raises(ValueError):
            campaign.autotune_netspeed(0)


class TestMonitoringDuringCampaign:
    def test_dead_background_servers_shift_traffic_to_us(self, fresh_world):
        """Failure injection: the Indian zone's competitor dies, the
        monitor drops it from rotation, and our capture server absorbs
        the zone's whole demand."""
        campaign = CollectionCampaign(
            fresh_world, CampaignConfig(days=6, wire_fraction=0.0,
                                        monitor_daily=True, seed=4))
        india_bg = [server for server in campaign._background_servers
                    if server.location == "bg-IN"]
        assert india_bg
        campaign.advance_days(2)
        requests_before = next(
            server.stats.requests
            for server in campaign.capture_servers.values()
            if server.location == "India")
        for server in india_bg:
            fresh_world.network.remove_host(server.address)
        campaign.advance_days(4)
        # All India-zone background members are now out of rotation.
        for server in india_bg:
            entry = campaign.pool.server(server.address)
            assert not entry.in_rotation
        requests_after = next(
            server.stats.requests
            for server in campaign.capture_servers.values()
            if server.location == "India")
        per_day_before = requests_before / 2
        per_day_after = (requests_after - requests_before) / 4
        assert per_day_after > per_day_before

    def test_healthy_campaign_unaffected_by_monitoring(self, fresh_world):
        campaign = CollectionCampaign(
            fresh_world, CampaignConfig(days=2, wire_fraction=0.0,
                                        monitor_daily=True, seed=4))
        campaign.run()
        for server in campaign.pool.servers:
            assert server.in_rotation
