"""RFC 5905 NTPv4 packet codec.

The collection pipeline captures client addresses at real NTP servers,
so the reproduction speaks real NTP on the wire: 48-byte mode-3/mode-4
packets with the full header — leap indicator, version, mode, stratum,
poll, precision, root delay/dispersion, reference ID, and the four
64-bit timestamps in NTP's 32.32 fixed-point format (seconds since the
1900 era).
"""

from __future__ import annotations

import enum
import struct
from typing import Optional
from dataclasses import dataclass, field

#: Size of a headers-only NTP packet.
PACKET_SIZE = 48

#: Offset between the NTP era (1900) and the Unix epoch (1970), seconds.
NTP_UNIX_OFFSET = 2_208_988_800

_HEADER = struct.Struct("!BBbbIIIQQQQ")


class Mode(enum.IntEnum):
    """NTP association modes (RFC 5905 §7.3)."""

    RESERVED = 0
    SYMMETRIC_ACTIVE = 1
    SYMMETRIC_PASSIVE = 2
    CLIENT = 3
    SERVER = 4
    BROADCAST = 5
    CONTROL = 6
    PRIVATE = 7


class LeapIndicator(enum.IntEnum):
    """Leap second warning field."""

    NO_WARNING = 0
    LAST_MINUTE_61 = 1
    LAST_MINUTE_59 = 2
    UNSYNCHRONIZED = 3


def to_ntp_time(unix_seconds: float) -> int:
    """Convert Unix-epoch seconds to a 64-bit NTP timestamp."""
    total = unix_seconds + NTP_UNIX_OFFSET
    seconds = int(total)
    fraction = int((total - seconds) * (1 << 32))
    return ((seconds & 0xFFFFFFFF) << 32) | (fraction & 0xFFFFFFFF)


def from_ntp_time(timestamp: int) -> float:
    """Convert a 64-bit NTP timestamp to Unix-epoch seconds."""
    seconds = (timestamp >> 32) & 0xFFFFFFFF
    fraction = timestamp & 0xFFFFFFFF
    return seconds - NTP_UNIX_OFFSET + fraction / (1 << 32)


class NtpDecodeError(ValueError):
    """Raised when bytes do not form a valid NTP packet."""


@dataclass
class NtpPacket:
    """One NTPv4 packet, fields mirroring RFC 5905 §7.3."""

    leap: LeapIndicator = LeapIndicator.NO_WARNING
    version: int = 4
    mode: Mode = Mode.CLIENT
    stratum: int = 0
    poll: int = 6
    precision: int = -20
    root_delay: int = 0
    root_dispersion: int = 0
    reference_id: int = 0
    reference_timestamp: int = 0
    origin_timestamp: int = 0
    receive_timestamp: int = 0
    transmit_timestamp: int = 0
    extensions: bytes = field(default=b"", repr=False)

    def encode(self) -> bytes:
        """Serialize to wire format."""
        if not 1 <= self.version <= 7:
            raise ValueError(f"NTP version out of range: {self.version}")
        # RFC 5905 defines poll and precision as signed 8-bit exponents:
        # a negative poll means a sub-second interval and must survive
        # the wire (the seed codec packed poll unsigned via `& 0xFF`,
        # so -6 decoded as 250).
        if not -128 <= self.poll <= 127:
            raise ValueError(f"NTP poll out of int8 range: {self.poll}")
        if not -128 <= self.precision <= 127:
            raise ValueError(
                f"NTP precision out of int8 range: {self.precision}")
        first = ((int(self.leap) & 0x3) << 6) | ((self.version & 0x7) << 3) | (
            int(self.mode) & 0x7
        )
        header = _HEADER.pack(
            first,
            self.stratum & 0xFF,
            self.poll,
            self.precision,
            self.root_delay & 0xFFFFFFFF,
            self.root_dispersion & 0xFFFFFFFF,
            self.reference_id & 0xFFFFFFFF,
            self.reference_timestamp & 0xFFFFFFFFFFFFFFFF,
            self.origin_timestamp & 0xFFFFFFFFFFFFFFFF,
            self.receive_timestamp & 0xFFFFFFFFFFFFFFFF,
            self.transmit_timestamp & 0xFFFFFFFFFFFFFFFF,
        )
        return header + self.extensions

    @classmethod
    def decode(cls, data: bytes) -> "NtpPacket":
        """Parse wire bytes; raises :class:`NtpDecodeError` when malformed."""
        if len(data) < PACKET_SIZE:
            raise NtpDecodeError(
                f"NTP packet too short: {len(data)} < {PACKET_SIZE} bytes"
            )
        (first, stratum, poll, precision, root_delay, root_dispersion,
         reference_id, ref_ts, origin_ts, recv_ts, tx_ts) = _HEADER.unpack(
            data[:PACKET_SIZE]
        )
        version = (first >> 3) & 0x7
        if version == 0:
            raise NtpDecodeError("NTP version 0 is not a valid packet")
        return cls(
            leap=LeapIndicator((first >> 6) & 0x3),
            version=version,
            mode=Mode(first & 0x7),
            stratum=stratum,
            poll=poll,
            precision=precision,
            root_delay=root_delay,
            root_dispersion=root_dispersion,
            reference_id=reference_id,
            reference_timestamp=ref_ts,
            origin_timestamp=origin_ts,
            receive_timestamp=recv_ts,
            transmit_timestamp=tx_ts,
            extensions=data[PACKET_SIZE:],
        )


def client_request(transmit_time: float) -> NtpPacket:
    """Build the mode-3 request an SNTP client sends (NTPv4, poll 2^6 s,
    the :class:`NtpPacket` defaults)."""
    return NtpPacket(
        mode=Mode.CLIENT,
        transmit_timestamp=to_ntp_time(transmit_time),
    )


def kiss_code(packet: NtpPacket) -> Optional[str]:
    """Decode the kiss code (RFC 5905 §7.4: 4 ASCII bytes in the
    reference ID) of a stratum-0 server packet (else None)."""
    if packet.stratum != 0 or packet.mode is not Mode.SERVER:
        return None
    raw = packet.reference_id.to_bytes(4, "big")
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        return None


def server_response(request: NtpPacket, receive_time: float,
                    transmit_time: float, stratum: int = 2,
                    reference_id: int = 0x47505300) -> NtpPacket:
    """Build the mode-4 response mirroring a client request.

    Copies the request's transmit timestamp into the origin field, as
    required for the client's round-trip computation.
    """
    return NtpPacket(
        leap=LeapIndicator.NO_WARNING,
        version=min(request.version, 4),
        mode=Mode.SERVER,
        stratum=stratum,
        poll=request.poll,
        precision=-23,
        root_delay=0x100,
        root_dispersion=0x80,
        reference_id=reference_id,
        reference_timestamp=to_ntp_time(receive_time - 16.0),
        origin_timestamp=request.transmit_timestamp,
        receive_timestamp=to_ntp_time(receive_time),
        transmit_timestamp=to_ntp_time(transmit_time),
    )
