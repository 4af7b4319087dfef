"""Tests for the reverse-DNS registry and its detection signal."""

import pytest

from repro.core.actors import covert_profile, research_profile
from repro.net.rdns import ReverseDns
from tests.net_reference import identifies_research


class TestRegistry:
    def test_register_and_lookup(self):
        rdns = ReverseDns()
        rdns.register(42, "scanner-1.example.edu")
        assert rdns.lookup(42) == "scanner-1.example.edu"
        assert rdns.lookup(43) is None

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ReverseDns().register(1, "")

    def test_register_range_interpolates(self):
        rdns = ReverseDns()
        rdns.register_range([10, 11, 12], "probe-{index}.sim")
        assert rdns.lookup(10) == "probe-0.sim"
        assert rdns.lookup(12) == "probe-2.sim"
        assert len(rdns) == 3

    def test_overwrite(self):
        rdns = ReverseDns()
        rdns.register(1, "old.sim")
        rdns.register(1, "new.sim")
        assert rdns.lookup(1) == "new.sim"


class TestResearchIdentification:
    @pytest.mark.parametrize("name,expected", [
        ("ipv6-research-scanner-0.gt.example.edu", True),
        ("measurement-probe.uni.example", True),
        ("survey.lab.example", True),
        ("vps-4821.cloud.example", False),
    ])
    def test_markers(self, name, expected):
        rdns = ReverseDns()
        rdns.register(1, name)
        assert identifies_research(rdns, 1) is expected

    def test_nxdomain_not_research(self):
        assert identifies_research(ReverseDns(), 1) is False


class TestActorProfiles:
    def test_research_profile_publishes_rdns(self):
        assert research_profile().rdns_pattern is not None
        assert "research" in research_profile().rdns_pattern

    def test_covert_profile_publishes_nothing(self):
        assert covert_profile().rdns_pattern is None


class TestDetectorIntegration:
    def test_rdns_strengthens_verdicts(self, fresh_world):
        """With rDNS wired in, the research actor is identified by its
        PTR records and the covert actor by their absence."""
        from repro.core.actors import NtpSourcingActor
        from repro.core.campaign import CampaignConfig, CollectionCampaign
        from repro.core.detection import ActorDetector
        from repro.core.telescope import Telescope
        from repro.net.clock import DAY, EventScheduler

        world = fresh_world
        campaign = CollectionCampaign(world, CampaignConfig(days=1))
        scheduler = EventScheduler(world.clock)
        research_as = next(s for s in world.asdb.systems
                           if s.category == "Educational/Research")
        clouds = [s for s in world.asdb.systems
                  if s.name.startswith("HyperCloud")]
        NtpSourcingActor(
            world, campaign.pool, scheduler, research_profile(),
            server_base=world.allocate_prefix64(clouds[0].number),
            scanner_base=world.allocate_prefix64(research_as.number),
            zones=["us"], seed=1)
        NtpSourcingActor(
            world, campaign.pool, scheduler, covert_profile(),
            server_base=world.allocate_prefix64(clouds[1].number),
            scanner_base=world.allocate_prefix64(clouds[2].number),
            zones=["us"], seed=2)
        telescope = Telescope(world.network)
        for _ in range(5):
            telescope.sweep(campaign.pool)
            scheduler.run_until(world.clock.now() + DAY)
        scheduler.run_until(world.clock.now() + 4 * DAY)

        detector = ActorDetector(telescope, world.asdb, rdns=world.rdns)
        verdicts = {v.kind: v for v in detector.report()}
        assert set(verdicts) == {"research", "covert"}
        research = verdicts["research"]
        assert research.observation.source_rdns
        assert any("reverse DNS" in reason for reason in research.reasons)
        covert = verdicts["covert"]
        assert not covert.observation.source_rdns
        assert any("no reverse DNS" in reason for reason in covert.reasons)
