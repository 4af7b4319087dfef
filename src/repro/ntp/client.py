"""An SNTP client for the simulated network.

Used in two roles: (i) the world's device population synchronizing
against the pool (their requests are what the collector captures), and
(ii) the telescope, which sends one query per bait address and later
watches that address for inbound scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.simnet import Network
from repro.ntp.packet import (
    Mode,
    NtpDecodeError,
    NtpPacket,
    client_request,
    from_ntp_time,
    kiss_code,
)
from repro.ntp.server import NTP_PORT


@dataclass(frozen=True)
class SyncResult:
    """Outcome of one successful SNTP exchange."""

    server: int
    stratum: int
    offset: float
    round_trip: float
    response: NtpPacket


class NtpClient:
    """Fire-and-collect SNTP client bound to one source address."""

    def __init__(self, network: Network, address: int) -> None:
        self.network = network
        self.address = address
        self.clock = network.clock
        #: Kiss codes received (RFC 5905: the client MUST back off).
        self.kisses: list = []
        network.add_host(address, reachable=True)

    def query(self, server: int) -> Optional[SyncResult]:
        """Send one mode-3 request; returns ``None`` on timeout/garbage."""
        t1 = self.clock.now()
        request = client_request(t1)
        payload = self.network.udp_request(
            self.address, server, NTP_PORT, request.encode()
        )
        if payload is None:
            return None
        try:
            response = NtpPacket.decode(payload)
        except NtpDecodeError:
            return None
        if response.mode is not Mode.SERVER:
            return None
        code = kiss_code(response)
        if code is not None:
            # Kiss-o'-death: record it and abandon the exchange.
            self.kisses.append(code)
            return None
        if response.origin_timestamp != request.transmit_timestamp:
            # Bogus/unsolicited reply (RFC 5905 TEST2).
            return None
        t4 = self.clock.now()
        t2 = from_ntp_time(response.receive_timestamp)
        t3 = from_ntp_time(response.transmit_timestamp)
        offset = ((t2 - t1) + (t3 - t4)) / 2
        round_trip = (t4 - t1) - (t3 - t2)
        return SyncResult(
            server=server,
            stratum=response.stratum,
            offset=offset,
            round_trip=round_trip,
            response=response,
        )
