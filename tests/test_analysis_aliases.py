"""Tests for aliased-prefix detection and the world's aliased /64s."""

import random

import pytest

from repro.analysis import aliases
from repro.analysis.aliases import filter_aliased, is_aliased
from repro.ipv6 import parse, prefix
from repro.proto.http import HttpServerSession
from repro.proto.tls_session import PlainService
from repro.scan.modules.http import scan_http
from repro.world.hitlist import build_hitlist
from repro.world.population import build_world
from tests.conftest import small_world_config
from tests.net_reference import is_wildcard

SRC = parse("2001:db8:50::1")
ALIASED = parse("2001:db8:a11a:5ed::")
NORMAL = parse("2001:db8:42::")


@pytest.fixture()
def aliased_network(network):
    wildcard = network.add_wildcard_host(ALIASED)
    wildcard.bind_tcp(80, PlainService(lambda: HttpServerSession(None)))
    host = network.add_host(NORMAL + 1)
    host.bind_tcp(80, PlainService(lambda: HttpServerSession("real")))
    return network


class TestWildcardHosts:
    def test_every_address_answers(self, aliased_network):
        for iid in (1, 0xDEAD, 0x1234567890ABCDEF):
            grab = scan_http(aliased_network, SRC, ALIASED + iid)
            assert grab.ok

    def test_exact_host_wins_over_wildcard(self, aliased_network):
        exact = aliased_network.add_host(ALIASED + 7)
        exact.bind_tcp(80, PlainService(lambda: HttpServerSession("exact")))
        assert scan_http(aliased_network, SRC, ALIASED + 7).title == "exact"

    def test_is_wildcard(self, aliased_network):
        assert is_wildcard(aliased_network, ALIASED + 99)
        assert not is_wildcard(aliased_network, NORMAL + 1)


class TestDetection:
    def test_aliased_detected(self, aliased_network):
        assert is_aliased(aliased_network, SRC, ALIASED)

    def test_normal_subnet_not_aliased(self, aliased_network):
        assert not is_aliased(aliased_network, SRC, NORMAL)

    def test_empty_subnet_not_aliased(self, aliased_network):
        assert not is_aliased(aliased_network, SRC, parse("2001:db8:77::"))

    def test_probe_validation(self, aliased_network, monkeypatch):
        monkeypatch.setattr(aliases, "PROBES", 0)
        with pytest.raises(ValueError):
            is_aliased(aliased_network, SRC, ALIASED)


class TestFiltering:
    def test_filter_removes_aliased_cluster(self, aliased_network):
        addresses = [ALIASED + 1, ALIASED + 2, ALIASED + 3, NORMAL + 1]
        report = filter_aliased(aliased_network, SRC, addresses,
                                rng=random.Random(1))
        assert report.kept == frozenset({NORMAL + 1})
        assert report.removed == 3
        assert prefix(ALIASED, 64) in report.aliased_prefixes

    def test_single_address_not_probed(self, aliased_network):
        """min_cluster guards against probing every singleton subnet."""
        report = filter_aliased(aliased_network, SRC, [ALIASED + 1],
                                rng=random.Random(1))
        assert report.kept == frozenset({ALIASED + 1})
        assert len(report.aliased_prefixes) == 0


class TestWorldIntegration:
    def test_world_has_aliased_prefixes(self, world):
        assert world.aliased_prefixes
        for prefix64 in world.aliased_prefixes:
            assert is_wildcard(world.network, prefix64 + 0x1234)

    def test_hitlist_public_dealiased(self):
        world = build_world(small_world_config())
        hitlist = build_hitlist(world)
        assert hitlist.aliased_prefixes
        flagged_world_prefixes = set(hitlist.aliased_prefixes)
        assert flagged_world_prefixes <= set(world.aliased_prefixes)
        for value in hitlist.public:
            assert prefix(value, 64) not in hitlist.aliased_prefixes
