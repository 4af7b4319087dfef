"""Integration tests: SNTP server and client over the simulated network."""

import pytest

from repro.ipv6 import parse
from repro.ntp.client import NtpClient
from repro.ntp.packet import Mode, NtpPacket
from repro.ntp.server import NTP_PORT, NtpServer
from tests.net_reference import advance

SERVER = parse("2001:db8::123")
CLIENT = parse("2001:db8:ffff::5")


@pytest.fixture()
def server(network):
    return NtpServer(network, SERVER, location="DE")


@pytest.fixture()
def client(network):
    return NtpClient(network, CLIENT)


class TestExchange:
    def test_successful_sync(self, network, server, client):
        result = client.query(SERVER)
        assert result is not None
        assert result.stratum == 2
        assert result.server == SERVER
        assert result.round_trip >= 0.0

    def test_stats_counted(self, network, server, client):
        client.query(SERVER)
        client.query(SERVER)
        assert server.stats.requests == 2
        assert server.stats.responses == 2

    def test_query_dead_server(self, network, client):
        assert client.query(parse("2001:db8::dead")) is None


class TestCapture:
    def test_capture_hook_sees_client(self, network, server, client):
        captured = []
        server.add_capture_hook(
            lambda address, port, request, time: captured.append(address)
        )
        client.query(SERVER)
        assert captured == [CLIENT]

    def test_capture_carries_time(self, network, server, client):
        times = []
        server.add_capture_hook(
            lambda address, port, request, time: times.append(time)
        )
        advance(network.clock, 42.0)
        client.query(SERVER)
        assert times == [42.0]

    def test_malformed_request_not_captured(self, network, server):
        captured = []
        server.add_capture_hook(
            lambda address, port, request, time: captured.append(address)
        )
        network.add_host(CLIENT)
        assert network.udp_request(CLIENT, SERVER, NTP_PORT, b"junk") is None
        assert captured == []
        assert server.stats.malformed == 1

    def test_wrong_mode_not_captured(self, network, server):
        captured = []
        server.add_capture_hook(
            lambda address, port, request, time: captured.append(address)
        )
        network.add_host(CLIENT)
        packet = NtpPacket(mode=Mode.SERVER)
        assert network.udp_request(CLIENT, SERVER, NTP_PORT,
                                   packet.encode()) is None
        assert server.stats.wrong_mode == 1
        assert captured == []


class TestClientValidation:
    def test_client_rejects_bogus_origin(self, network, server):
        """RFC 5905 TEST2: a response not matching our transmit timestamp
        is discarded."""
        network.add_host(CLIENT)
        # Craft a fake server that answers with a wrong origin timestamp.
        fake_addr = parse("2001:db8::fa4e")

        def fake_responder(datagram):
            request = NtpPacket.decode(datagram.payload)
            response = NtpPacket(mode=Mode.SERVER, stratum=2,
                                 origin_timestamp=request.transmit_timestamp ^ 1)
            return response.encode()

        network.add_host(fake_addr).bind_udp(NTP_PORT, fake_responder)
        client = NtpClient(network, CLIENT)
        assert client.query(fake_addr) is None

    def test_client_rejects_client_mode_reply(self, network):
        network.add_host(CLIENT)
        fake_addr = parse("2001:db8::fa4f")

        def echo_mode3(datagram):
            request = NtpPacket.decode(datagram.payload)
            return NtpPacket(mode=Mode.CLIENT,
                             origin_timestamp=request.transmit_timestamp
                             ).encode()

        network.add_host(fake_addr).bind_udp(NTP_PORT, echo_mode3)
        client = NtpClient(network, CLIENT)
        assert client.query(fake_addr) is None

    def test_offset_zero_in_simulation(self, network, server, client):
        """Both endpoints share the virtual clock, so offset must be 0."""
        result = client.query(SERVER)
        assert result.offset == pytest.approx(0.0, abs=1e-6)
