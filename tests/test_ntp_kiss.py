"""Tests for NTP kiss-o'-death packets (RFC 5905 §7.4): the codec, and
the client's handling of a kiss from the network."""


from repro.ipv6 import parse
from repro.ntp.client import NtpClient
from repro.ntp.packet import (
    LeapIndicator,
    Mode,
    NtpPacket,
    client_request,
    kiss_code,
    server_response,
)
from repro.ntp.server import NTP_PORT, NtpServer

SERVER = parse("2001:500::1")
CLIENT = parse("2001:db8::c1")

#: Kiss codes (RFC 5905 §7.4), packed as 4 ASCII bytes in the refid.
KISS_RATE = int.from_bytes(b"RATE", "big")
KISS_DENY = int.from_bytes(b"DENY", "big")


def kiss_of_death(request, code=KISS_RATE):
    """Build a kiss-o'-death packet: stratum 0, the kiss code in the
    reference ID, telling the client to back off (RATE) or go away
    (DENY).  No simulated server sends one; tests use it to check the
    codec and the client's back-off."""
    return NtpPacket(
        leap=LeapIndicator.UNSYNCHRONIZED,
        version=min(request.version, 4),
        mode=Mode.SERVER,
        stratum=0,
        poll=request.poll,
        reference_id=code,
        origin_timestamp=request.transmit_timestamp,
    )


class TestKissCodec:
    def test_kod_shape(self):
        request = client_request(0.0)
        kod = kiss_of_death(request)
        assert kod.stratum == 0
        assert kod.mode is Mode.SERVER
        assert kiss_code(kod) == "RATE"

    def test_deny_code(self):
        kod = kiss_of_death(client_request(0.0), KISS_DENY)
        assert kiss_code(kod) == "DENY"

    def test_roundtrip_over_wire(self):
        kod = kiss_of_death(client_request(0.0))
        decoded = NtpPacket.decode(kod.encode())
        assert kiss_code(decoded) == "RATE"

    def test_normal_response_has_no_kiss(self):
        response = server_response(client_request(0.0), 0.1, 0.1)
        assert kiss_code(response) is None

    def test_client_mode_packet_no_kiss(self):
        assert kiss_code(client_request(0.0)) is None


class TestServerRateLimit:
    def test_disabled_by_default(self, network):
        """A live server never kisses: back-to-back queries are served."""
        NtpServer(network, SERVER, location="X")
        client = NtpClient(network, CLIENT)
        assert client.query(SERVER) is not None
        assert client.query(SERVER) is not None


class TestClientKiss:
    def test_rate_kiss_is_recorded_not_synced(self, network):
        def kissing(datagram):
            request = NtpPacket.decode(datagram.payload)
            return kiss_of_death(request, KISS_RATE).encode()

        network.add_host(SERVER).bind_udp(NTP_PORT, kissing)
        client = NtpClient(network, CLIENT)
        assert client.query(SERVER) is None
        assert client.kisses == ["RATE"]
