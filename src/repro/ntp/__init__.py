"""NTP substrate: RFC 5905 codec, SNTP server/client, pool simulator."""

from repro.ntp.client import NtpClient, SyncResult
from repro.ntp.packet import (
    LeapIndicator,
    Mode,
    NtpDecodeError,
    NtpPacket,
    client_request,
    from_ntp_time,
    kiss_code,
    server_response,
    to_ntp_time,
)
from repro.ntp.pool import NtpPool, PoolServer, weighted_request_rates
from repro.ntp.server import NTP_PORT, NtpServer, ServerStats

__all__ = [
    "LeapIndicator",
    "Mode",
    "NTP_PORT",
    "NtpClient",
    "NtpDecodeError",
    "NtpPacket",
    "NtpPool",
    "NtpServer",
    "PoolServer",
    "ServerStats",
    "SyncResult",
    "client_request",
    "from_ntp_time",
    "kiss_code",
    "server_response",
    "to_ntp_time",
    "weighted_request_rates",
]
