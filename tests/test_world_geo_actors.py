"""Tests for the geo registry and actor mechanics not covered elsewhere."""

import random

import pytest

from repro.core.actors import NtpSourcingActor, research_profile
from repro.net.clock import EventScheduler
from repro.ntp.client import NtpClient
from repro.ntp.pool import NtpPool
from repro.world.geo import COUNTRIES, DEPLOYMENT_COUNTRIES, default_geo

from tests.net_reference import pending


class TestGeoDatabase:
    def test_all_deployment_countries_exist(self):
        geo = default_geo()
        for code in DEPLOYMENT_COUNTRIES:
            country = geo.country(code)
            assert country.code == code

    def test_eleven_deployment_countries(self):
        assert len(DEPLOYMENT_COUNTRIES) == 11

    def test_india_dominates_demand(self):
        geo = default_geo()
        weights = geo.demand_weights()
        assert weights["IN"] == max(weights.values())

    def test_india_zone_least_competitive(self):
        """The paper's placement criterion: big client base, few
        existing servers."""
        geo = default_geo()
        india = geo.country("IN")
        netherlands = geo.country("NL")
        assert india.client_weight / (india.competing_servers + 1) > \
            10 * netherlands.client_weight / (netherlands.competing_servers + 1)

    def test_unknown_country_raises(self):
        with pytest.raises(KeyError):
            default_geo().country("ZZ")

    def test_codes_unique(self):
        codes = [country.code for country in COUNTRIES]
        assert len(set(codes)) == len(codes)

    def test_continents_sane(self):
        for country in COUNTRIES:
            assert country.continent in {"EU", "AS", "NA", "SA", "AF", "OC"}


class TestActorMechanics:
    @pytest.fixture()
    def setup(self, fresh_world):
        world = fresh_world
        pool = NtpPool(world.network)
        scheduler = EventScheduler(world.clock)
        clouds = [s for s in world.asdb.systems
                  if s.name.startswith("HyperCloud")]
        actor = NtpSourcingActor(
            world, pool, scheduler, research_profile("unit"),
            server_base=world.allocate_prefix64(clouds[0].number),
            scanner_base=world.allocate_prefix64(clouds[1].number),
            zones=["us"], seed=7)
        return world, pool, scheduler, actor

    def test_default_seed_is_process_independent(self, fresh_world):
        """A default-seed actor draws from ``random.Random(0)``, not from
        a seed derived from ``hash(profile.name)``, which changes with
        ``PYTHONHASHSEED`` from one process to the next."""
        world = fresh_world
        clouds = [s for s in world.asdb.systems
                  if s.name.startswith("HyperCloud")]
        actor = NtpSourcingActor(
            world, NtpPool(world.network), EventScheduler(world.clock),
            research_profile("GT"),
            server_base=world.allocate_prefix64(clouds[0].number),
            scanner_base=world.allocate_prefix64(clouds[1].number),
            zones=["us"])
        assert actor.rng.random() == random.Random(0).random()

    def test_servers_registered_in_pool(self, setup):
        world, pool, scheduler, actor = setup
        assert len(actor.servers) == 15
        operators = {server.operator for server in pool.servers}
        assert operators == {"unit"}

    def test_capture_schedules_scan(self, setup):
        world, pool, scheduler, actor = setup
        client = NtpClient(world.network, int("20010db8000011110000000000000001", 16))
        assert client.query(actor.servers[0].address) is not None
        assert pending(scheduler) == 1  # the scan event
        scheduler.run_until(world.clock.now() + 3600)
        assert actor.scans_launched == 1
        assert actor.probes_sent > 0

    def test_repeat_capture_no_duplicate_scan(self, setup):
        world, pool, scheduler, actor = setup
        address = int("20010db8000011110000000000000002", 16)
        client = NtpClient(world.network, address)
        client.query(actor.servers[0].address)
        client.query(actor.servers[1].address)
        assert pending(scheduler) == 1

    def test_actor_servers_serve_valid_time(self, setup):
        """Actors must be *working* pool members, or the monitor would
        evict them (and the paper's actors did serve time)."""
        world, pool, scheduler, actor = setup
        client = NtpClient(world.network, int("20010db8000011110000000000000003", 16))
        result = client.query(actor.servers[0].address)
        assert result is not None and result.stratum == 2

    def test_probe_cap_bounds_events(self, setup):
        """The 1011-port research profile caps per-address probes."""
        world, pool, scheduler, actor = setup
        client = NtpClient(world.network, int("20010db8000011110000000000000004", 16))
        client.query(actor.servers[0].address)
        scheduler.run_until(world.clock.now() + 7200)
        assert actor.probes_sent <= 65
