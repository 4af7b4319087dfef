"""An SNTP server with a client-address capture hook.

This is the reproduction's analogue of the paper's "NTP servers
modified to capture client addresses": a standards-conforming mode-3 →
mode-4 responder whose every valid request is also reported to an
observer callback carrying the client's source address and the request
timestamp.  The :mod:`repro.core.collector` subscribes to that hook.

The server speaks only the time exchange.  A mode-6/7 control-plane
datagram fails the mode-3 decode and goes unanswered, counted as
malformed or wrong-mode; the one control-plane responder is
:class:`repro.ntp.service.NtpControlService`, which the amplification
study scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.net.packet import Datagram
from repro.net.simnet import Network
from repro.ntp.packet import Mode, NtpDecodeError, NtpPacket, server_response

#: UDP port NTP listens on.
NTP_PORT = 123

#: Observer signature: (client_address, client_port, request, sim_time).
CaptureHook = Callable[[int, int, NtpPacket, float], None]


@dataclass
class ServerStats:
    """Operational counters of one NTP server."""

    requests: int = 0
    responses: int = 0
    malformed: int = 0
    wrong_mode: int = 0


class NtpServer:
    """A stratum-2 pool-member SNTP server bound to one simulated address.

    The server answers on ``network.clock``; ``location`` names it and
    seeds its reference ID.
    """

    def __init__(self, network: Network, address: int, *,
                 location: str = "") -> None:
        self.network = network
        self.address = address
        self.stratum = 2
        self.clock = network.clock
        self.location = location
        self.stats = ServerStats()
        self._capture_hooks: List[CaptureHook] = []
        host = network.add_host(address)
        host.bind_udp(NTP_PORT, self._handle)

    def add_capture_hook(self, hook: CaptureHook) -> None:
        """Register an address-capture observer."""
        self._capture_hooks.append(hook)

    def _handle(self, datagram: Datagram):
        self.stats.requests += 1
        try:
            request = NtpPacket.decode(datagram.payload)
        except NtpDecodeError:
            self.stats.malformed += 1
            return None
        if request.mode is not Mode.CLIENT:
            self.stats.wrong_mode += 1
            return None
        now = self.clock.now()
        for hook in self._capture_hooks:
            hook(datagram.src, datagram.src_port, request, now)
        response = server_response(
            request,
            receive_time=now,
            transmit_time=now,
            stratum=self.stratum,
            reference_id=_reference_id(self.location),
        )
        self.stats.responses += 1
        return response.encode()


def _reference_id(location: str) -> int:
    """Derive a stable 32-bit reference ID from the server's location tag."""
    tag = (location or "SIM").upper().encode("ascii", "replace")[:4].ljust(4, b"\0")
    return int.from_bytes(tag, "big")
