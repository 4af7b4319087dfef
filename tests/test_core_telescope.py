"""Tests for the telescope (Section 5 methodology)."""

import pytest

from repro.core.telescope import Telescope
from repro.ipv6 import parse, prefix
from repro.ntp.pool import NtpPool
from repro.ntp.server import NtpServer
from tests.net_reference import advance

SERVER = parse("2001:500::77")


@pytest.fixture()
def telescope(network):
    return Telescope(network)


@pytest.fixture()
def server(network):
    return NtpServer(network, SERVER, location="XX")


class TestBaits:
    def test_each_query_fresh_address(self, network, telescope, server):
        first = telescope.query(SERVER)
        second = telescope.query(SERVER)
        assert first.address != second.address
        assert prefix(first.address, 48) == telescope.prefix48

    def test_answered_flag(self, network, telescope, server):
        record = telescope.query(SERVER)
        assert record.answered

    def test_unanswered_flag(self, network, telescope):
        record = telescope.query(parse("2001:500::dead"))
        assert not record.answered

    def test_response_rate(self, network, telescope, server):
        telescope.query(SERVER)
        telescope.query(parse("2001:500::dead"))
        assert telescope.response_rate() == pytest.approx(0.5)

    def test_sweep_queries_all_pool_servers(self, network, telescope, server):
        pool = NtpPool(network)
        pool.register(SERVER, "de")
        other = parse("2001:500::78")
        NtpServer(network, other, location="YY")
        pool.register(other, "us")
        records = telescope.sweep(pool)
        assert {record.server for record in records} == {SERVER, other}


class TestCapture:
    def test_inbound_syn_matched_to_bait(self, network, telescope, server):
        record = telescope.query(SERVER)
        scanner = parse("2001:db8:bad::1")
        advance(network.clock, 100.0)
        network.tcp_connect(scanner, record.address, 443)
        matched = telescope.matched_events()
        assert len(matched) == 1
        event = matched[0]
        assert event.src == scanner
        assert event.dst_port == 443
        assert event.bait.server == SERVER
        assert event.bait is not None

    def test_scatter_detected(self, network, telescope, server):
        telescope.query(SERVER)
        unused = telescope.prefix48 + (0x9999 << 64) + 1
        network.tcp_connect(parse("2001:db8:bad::1"), unused, 22)
        assert len(telescope.scatter_events()) == 1
        assert telescope.match_rate() < 1.0

    def test_own_ntp_response_not_an_event(self, network, telescope, server):
        telescope.query(SERVER)
        assert telescope.events == []

    def test_udp_probes_captured(self, network, telescope, server):
        record = telescope.query(SERVER)
        advance(network.clock, 60.0)
        network.udp_request(parse("2001:db8:bad::2"), record.address,
                            5683, b"probe")
        matched = telescope.matched_events()
        assert len(matched) == 1
        assert matched[0].transport == "udp"

    def test_traffic_outside_prefix_ignored(self, network, telescope, server):
        telescope.query(SERVER)
        network.tcp_connect(parse("2001:db8:bad::1"),
                            parse("2001:db8:aaaa::1"), 443)
        assert telescope.events == []

    def test_match_rate_all_matched(self, network, telescope, server):
        record = telescope.query(SERVER)
        advance(network.clock, 60.0)
        for port in (443, 8443, 3389):
            network.tcp_connect(parse("2001:db8:bad::1"),
                                record.address, port)
        assert telescope.match_rate() == 1.0
        assert len(telescope.events) == 3
