"""Tests for the collection campaign (pool deployment + client traffic)."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignConfig, CollectionCampaign, rl_2022_config
from repro.core.pipeline import build_world
from repro.net.clock import DAY
from repro.net.simnet import Network
from repro.ntp.pool import NtpPool

from tests.conftest import small_world_config
from tests.test_ntp_pool import (
    ADDRESSES, COUNTRIES, MONITOR, _operations, _registrations,
    apply_operation)


@pytest.fixture()
def campaign(fresh_world):
    return CollectionCampaign(
        fresh_world,
        CampaignConfig(days=3, wire_fraction=0.05, seed=1),
    )


class TestDeployment:
    def test_eleven_capture_servers(self, campaign):
        assert len(campaign.capture_servers) == 11

    def test_capture_servers_in_pool(self, campaign):
        operators = {server.operator for server in campaign.pool.servers}
        assert "study" in operators
        assert "background" in operators

    def test_background_competition_matches_geo(self, campaign, fresh_world):
        background = [s for s in campaign.pool.servers
                      if s.operator == "background"]
        expected = sum(c.competing_servers for c in fresh_world.geo.countries)
        assert len(background) == expected

    def test_some_background_members_dead(self, campaign):
        """The pool always carries unresponsive members (paper: the
        telescope saw ~86 % of queries answered)."""
        registered = sum(1 for s in campaign.pool.servers
                         if s.operator == "background")
        alive = len(campaign._background_servers)
        assert 0 < alive < registered

    def test_telescope_response_rate_below_one(self, campaign):
        from repro.core.telescope import Telescope

        telescope = Telescope(campaign.world.network)
        telescope.sweep(campaign.pool)
        rate = telescope.response_rate()
        assert 0.7 < rate < 1.0

    def test_deregister_all(self, campaign):
        campaign.deregister_all()
        for address in campaign.capture_servers:
            assert not campaign.pool.server(address).advertised


class TestCollection:
    def test_collects_addresses(self, campaign):
        report = campaign.run()
        assert len(report.dataset) > 100
        assert report.days_run == 3
        assert report.dataset.total_requests > len(report.dataset)

    def test_clock_advances_by_days(self, campaign, fresh_world):
        start = fresh_world.clock.now()
        campaign.run()
        assert fresh_world.clock.now() == pytest.approx(start + 3 * DAY)

    def test_wire_and_fast_paths_used(self, campaign):
        report = campaign.run()
        assert report.wire_queries > 0
        assert report.fast_queries > 0

    def test_india_dominates_collection(self, campaign):
        """The paper's Table 7 spread must emerge from zone competition."""
        report = campaign.run()
        counts = report.dataset.per_server_counts()
        assert counts["India"] == max(counts.values())
        assert counts["India"] > 5 * counts["the Netherlands"]

    def test_all_capture_locations_collect(self, campaign):
        report = campaign.run()
        assert len(report.dataset.per_server_counts()) == 11

    def test_incremental_equals_oneshot(self, fresh_world):
        from repro.world.population import build_world
        from tests.conftest import small_world_config

        split = CollectionCampaign(fresh_world,
                                   CampaignConfig(days=3, seed=2,
                                                  wire_fraction=0.0))
        split.advance_days(1)
        split.advance_days(2)
        other_world = build_world(small_world_config())
        oneshot = CollectionCampaign(other_world,
                                     CampaignConfig(days=3, seed=2,
                                                    wire_fraction=0.0))
        oneshot.advance_days(3)
        assert split.dataset.addresses == oneshot.dataset.addresses

    def test_new_addresses_keep_arriving(self, campaign):
        """Churn keeps the discovery rate up across the window."""
        report = campaign.run()
        histogram = report.dataset.new_addresses_per_day()
        assert all(histogram.get(day, 0) > 0 for day in range(3))


class TestRlProfile:
    def test_profile_has_27_servers(self):
        assert len(rl_2022_config().deployment) == 27

    def test_rl_campaign_runs(self, fresh_world):
        campaign = CollectionCampaign(fresh_world, rl_2022_config(days=2))
        report = campaign.run()
        assert len(report.dataset) > 50

    def test_two_campaigns_coexist(self, fresh_world):
        """The R&L campaign and ours must not collide on server addresses."""
        first = CollectionCampaign(fresh_world, rl_2022_config(days=1))
        first.run()
        second = CollectionCampaign(fresh_world,
                                    CampaignConfig(days=1, seed=3))
        report = second.run()
        assert len(report.dataset) > 0


# -- collection-day tables ------------------------------------------------------

class _Capture:
    """A capture server that logs each fast-path capture, in order."""

    def __init__(self, address, log):
        self.address = address
        self._log = log

    def record_direct(self, client, time, requests=1):
        self._log.append((self.address, client, time, requests))


def reference_day(pool, captures, rng, day_start, clients, resolutions):
    """The captures of one collection day whose every poll resolves the
    pool (``captures.get(pool.resolve(zone, rng))``): the per-poll loop
    the day tables replaced, without the wire path."""
    log = []
    events = [(rng.random() * DAY, device) for device in clients]
    events.sort(key=lambda event: event[0])
    now = day_start
    for offset, device in events:
        now = max(day_start + offset, now)
        polls = max(1, round(DAY / device.ntp_interval))
        share = max(1, polls // resolutions)
        for _ in range(min(resolutions, polls)):
            capture = captures.get(pool.resolve(device.country.lower(), rng))
            if capture is not None:
                log.append((capture.address, device.address, now, share))
    return log


@pytest.fixture(scope="module")
def day_campaign():
    """A campaign whose pool, capture servers and RNG a test replaces."""
    return CollectionCampaign(build_world(small_world_config()),
                              CampaignConfig(days=1, seed=1))


class TestDayTables:
    @settings(max_examples=60, deadline=None)
    @given(_registrations(), st.lists(_operations, max_size=40),
           st.sets(st.integers(0, len(ADDRESSES) - 1)),
           st.lists(st.tuples(st.sampled_from(COUNTRIES + ("in",)),
                              st.sampled_from((64.0, 1024.0, 30_000.0,
                                               2 * DAY))),
                    min_size=1, max_size=12),
           st.integers(0, 2 ** 32))
    def test_day_draws_match_resolve(self, day_campaign, registrations,
                                     operations, captured, devices, seed):
        """Random pool states (registrations in zones, netspeeds, dead
        servers and monitor rounds, empty zones on the global rotation,
        nothing in rotation) and capture subsets; a day runs at each
        ``resolve``.  Each day logs the captures, in order, that one
        ``resolve`` per poll from an identically seeded RNG finds, and
        leaves the RNG in the same state.  Every draw is one
        ``random()``, so together these pin every poll's pick, the
        polls that reach no capture server (or no server) included."""
        network = Network()
        pool = NtpPool(network, rng=random.Random(seed),
                       monitor_address=MONITOR)
        log = []
        captures = {ADDRESSES[index]: _Capture(ADDRESSES[index], log)
                    for index in captured}
        clients = [SimpleNamespace(address=index, country=country.upper(),
                                   ntp_interval=interval)
                   for index, (country, interval) in enumerate(devices)]
        day_campaign.pool = pool
        day_campaign.capture_servers = captures
        day_campaign.rng = random.Random(seed)
        reference_rng = random.Random(seed)
        clock = day_campaign.world.clock
        resolutions = day_campaign.config.resolutions_per_day
        for kind, *args in registrations + operations + [("resolve",)]:
            if kind != "resolve":
                apply_operation(pool, network, kind, *args)
                continue
            day_start = clock.now()
            expected = reference_day(pool, captures, reference_rng,
                                     day_start, clients, resolutions)
            log.clear()
            day_campaign._run_day(day_start, clients, set())
            assert log == expected
            assert day_campaign.rng.getstate() == reference_rng.getstate()
            clock.advance_to(day_start + DAY)
