"""Unit tests for the NTP Pool simulator."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipv6 import parse
from repro.net.simnet import Network
from repro.ntp.pool import SCORE_THRESHOLD, NtpPool, weighted_request_rates
from repro.ntp.server import NtpServer

S1 = parse("2001:500::1")
S2 = parse("2001:500::2")
S3 = parse("2001:500::3")
MONITOR = parse("2001:500::ff")


@pytest.fixture()
def pool(network):
    return NtpPool(network, rng=random.Random(7), monitor_address=MONITOR)


class TestRegistration:
    def test_register_and_resolve(self, pool):
        pool.register(S1, "de")
        assert pool.resolve("de") == S1

    def test_duplicate_rejected(self, pool):
        pool.register(S1, "de")
        with pytest.raises(ValueError):
            pool.register(S1, "de")

    def test_bad_netspeed_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.register(S1, "de", netspeed=0)

    def test_deregister_removes_from_rotation(self, pool):
        pool.register(S1, "de")
        pool.deregister(S1)
        assert pool.resolve("de") is None
        assert not pool.server(S1).in_rotation

    def test_deregister_unknown_raises(self, pool):
        with pytest.raises(KeyError):
            pool.deregister(S1)

    def test_empty_pool_resolves_none(self, pool):
        assert pool.resolve("de") is None


class TestGeoDnsResolution:
    def test_country_zone_preferred(self, pool):
        pool.register(S1, "de")
        pool.register(S2, "us")
        for _ in range(20):
            assert pool.resolve("de") == S1

    def test_empty_zone_falls_back_globally(self, pool):
        pool.register(S1, "de")
        assert pool.resolve("jp") == S1

    def test_netspeed_weighting(self, pool):
        pool.register(S1, "de", netspeed=9000)
        pool.register(S2, "de", netspeed=1000)
        rng = random.Random(3)
        counts = Counter(pool.resolve("de", rng) for _ in range(2000))
        assert counts[S1] > counts[S2] * 4

    def test_set_netspeed(self, pool):
        pool.register(S1, "de", netspeed=1000)
        pool.set_netspeed(S1, 5000)
        assert pool.server(S1).netspeed == 5000
        with pytest.raises(ValueError):
            pool.set_netspeed(S1, -1)

    def test_populated_zones(self, pool):
        pool.register(S1, "de")
        pool.register(S2, "us")
        pool.deregister(S2)
        assert pool.populated_zones() == ["de"]


class TestMonitoring:
    def test_healthy_server_stays_in_rotation(self, network, pool):
        NtpServer(network, S1, location="DE")
        pool.register(S1, "de")
        for _ in range(5):
            pool.run_monitor()
        assert pool.server(S1).in_rotation

    def test_dead_server_drops_out(self, network, pool):
        # No NtpServer bound: queries time out, score decays.
        pool.register(S1, "de")
        assert pool.server(S1).in_rotation
        for _ in range(3):
            pool.run_monitor()
        assert pool.server(S1).score < SCORE_THRESHOLD
        assert not pool.server(S1).in_rotation
        assert pool.resolve("de") is None

    def test_recovery_after_revival(self, network, pool):
        pool.register(S1, "de")
        for _ in range(3):
            pool.run_monitor()
        assert not pool.server(S1).in_rotation
        NtpServer(network, S1, location="DE")
        for _ in range(20):
            pool.run_monitor()
        assert pool.server(S1).in_rotation

    def test_monitorless_pool_raises(self, network):
        pool = NtpPool(network)
        pool.register(S1, "de")
        with pytest.raises(RuntimeError):
            pool.run_monitor()


class TestWeightedRates:
    def test_zone_demand_split_by_netspeed(self, pool):
        pool.register(S1, "de", netspeed=3000)
        pool.register(S2, "de", netspeed=1000)
        rates = weighted_request_rates(pool, {"de": 100.0})
        assert rates[S1] == pytest.approx(75.0)
        assert rates[S2] == pytest.approx(25.0)

    def test_empty_zone_spills_globally(self, pool):
        pool.register(S1, "de", netspeed=1000)
        pool.register(S2, "us", netspeed=1000)
        rates = weighted_request_rates(pool, {"jp": 100.0})
        assert rates[S1] == pytest.approx(50.0)
        assert rates[S2] == pytest.approx(50.0)

    def test_total_demand_conserved(self, pool):
        pool.register(S1, "de", netspeed=2500)
        pool.register(S2, "us", netspeed=800)
        pool.register(S3, "us", netspeed=200)
        demand = {"de": 60.0, "us": 30.0, "jp": 10.0}
        rates = weighted_request_rates(pool, demand)
        assert sum(rates.values()) == pytest.approx(sum(demand.values()))


# -- rotation cache -----------------------------------------------------------

def reference_resolve(pool, country, rng):
    """The uncached resolution the rotation cache replaced: rebuild the
    zone's (or the global) candidates and weights on every lookup."""
    candidates = pool.zone_servers(country)
    if not candidates:
        candidates = [s for s in pool.servers if s.in_rotation]
    if not candidates:
        return None
    weights = [server.netspeed for server in candidates]
    return rng.choices(candidates, weights=weights, k=1)[0].address


def reference_rates(pool, zone_demand):
    """The closed-form rates as computed before they shared the cache."""
    rates = {server.address: 0.0 for server in pool.servers}
    all_rotation = [s for s in pool.servers if s.in_rotation]
    global_weight = sum(s.netspeed for s in all_rotation)
    for zone, demand in zone_demand.items():
        members = pool.zone_servers(zone)
        if members:
            total = sum(s.netspeed for s in members)
            for server in members:
                rates[server.address] += demand * server.netspeed / total
        elif global_weight:
            for server in all_rotation:
                rates[server.address] += demand * server.netspeed / global_weight
    return rates


ZONES = ("de", "us")
COUNTRIES = ZONES + ("jp",)
ADDRESSES = tuple(parse(f"2001:500::{index + 1:x}") for index in range(4))
_INDEX = st.integers(0, len(ADDRESSES) - 1)

_operations = st.one_of(
    st.tuples(st.just("register"), _INDEX, st.sampled_from(ZONES),
              st.integers(1, 5000)),
    st.tuples(st.just("deregister"), _INDEX),
    st.tuples(st.just("set_netspeed"), _INDEX, st.integers(1, 5000)),
    st.tuples(st.just("live"), _INDEX),
    st.tuples(st.just("dead"), _INDEX),
    st.tuples(st.just("monitor"), st.integers(1, 4)),
    st.tuples(st.just("resolve")),
)


@st.composite
def _registrations(draw, live=False):
    """Registrations of distinct addresses in a random order, so that
    most pool states hold a rotation of more than one server; with
    ``live``, each registered server then also runs, so monitor rounds
    keep it in rotation."""
    order = draw(st.permutations(range(len(ADDRESSES))))
    registrations = [("register", index, draw(st.sampled_from(ZONES)),
                      draw(st.integers(1, 5000)))
                     for index in order[:draw(st.integers(1, len(ADDRESSES)))]]
    if live:
        registrations += [("live", index) for _, index, *_ in registrations]
    return registrations


def apply_operation(pool, network, kind, *args) -> None:
    """Apply one of :data:`_operations` other than ``resolve`` to
    ``pool`` and the ``network`` its servers live on."""
    registered = {server.address for server in pool.servers}
    if kind == "register":
        index, zone, netspeed = args
        if ADDRESSES[index] not in registered:
            pool.register(ADDRESSES[index], zone, netspeed=netspeed)
    elif kind in ("deregister", "set_netspeed"):
        if ADDRESSES[args[0]] in registered:
            getattr(pool, kind)(ADDRESSES[args[0]], *args[1:])
    elif kind == "live":
        if network.host(ADDRESSES[args[0]]) is None:
            NtpServer(network, ADDRESSES[args[0]])
    elif kind == "dead":
        network.remove_host(ADDRESSES[args[0]])
    else:
        for _ in range(args[0]):
            pool.run_monitor()


class TestRotationCache:
    @settings(max_examples=200, deadline=None)
    @given(_registrations(live=True),
           st.lists(_operations, min_size=20, max_size=80),
           st.integers(0, 2 ** 32))
    def test_cached_resolve_matches_reference(self, registrations,
                                              operations, seed):
        """Random interleavings of every cache-clearing operation with
        lookups, from a pool of live servers in the queried zones: each
        lookup (several draws per country) returns what the uncached
        reference returns from an identically seeded RNG, and the
        closed-form rates agree at the end."""
        network = Network()
        pool = NtpPool(network, rng=random.Random(seed),
                       monitor_address=MONITOR)
        cached_rng, reference_rng = random.Random(seed), random.Random(seed)
        for kind, *args in registrations + operations:
            if kind != "resolve":
                apply_operation(pool, network, kind, *args)
            else:
                for country in COUNTRIES * 8:
                    assert (pool.resolve(country, cached_rng) ==
                            reference_resolve(pool, country, reference_rng))
                assert cached_rng.getstate() == reference_rng.getstate()
        demand = {country: 10.0 + index
                  for index, country in enumerate(COUNTRIES)}
        assert weighted_request_rates(pool, demand) == \
            reference_rates(pool, demand)

    def test_set_netspeed_after_resolve_reweights(self, pool):
        pool.register(S1, "de", netspeed=1000)
        pool.register(S2, "de", netspeed=1000)
        pool.resolve("de")
        pool.set_netspeed(S2, 10 ** 9)
        rng = random.Random(5)
        assert {pool.resolve("de", rng) for _ in range(50)} == {S2}

    def test_register_into_empty_zone_after_resolve(self, pool):
        pool.register(S1, "de")
        assert pool.resolve("jp") == S1  # global fallback, now cached
        pool.register(S2, "jp")
        assert {pool.resolve("jp") for _ in range(20)} == {S2}

    def test_monitor_drop_after_resolve_leaves_rotation(self, network, pool):
        pool.register(S1, "de")
        NtpServer(network, S2)
        pool.register(S2, "de")
        pool.resolve("de")
        for _ in range(3):
            pool.run_monitor()  # S1 has no server: out of rotation
        assert {pool.resolve("de") for _ in range(20)} == {S2}
