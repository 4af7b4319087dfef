"""NTP mode-6 (control) and mode-7 (private/monlist) codecs.

RFC 5905 describes the clean time-sync exchange; the messy operational
surface of a real pool server lives in two side protocols:

* **mode 6** — the control protocol of RFC 1305 appendix B, still the
  wire format ``ntpq`` speaks: a 12-byte header (response/error/more
  flags plus a 5-bit opcode, sequence, status, association ID) framing
  an opaque data area windowed by *offset/count* fields.  Responses
  larger than one fragment are split into several packets sharing one
  sequence number, each carrying its window of the payload and the
  *more* bit on all but the last.
* **mode 7** — the pre-RFC private protocol of classic ``ntpd``
  (``ntpdc``), whose ``MON_GETLIST_1`` request ("monlist") asks for the
  server's recent-client table.  The request is a fixed 72-byte packet;
  the response is a train of packets carrying up to
  :data:`MONLIST_ENTRIES_PER_PACKET` 72-byte entries each (440 bytes a
  packet) — the classic UDP amplification vector this module exists to
  measure.

Both codecs raise :class:`~repro.ntp.packet.NtpDecodeError` subclasses
on malformed input, never a bare ``struct.error``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.ntp.packet import NtpDecodeError

#: Mode bits of the two side protocols (low 3 bits of byte 0).
MODE_CONTROL = 6
MODE_PRIVATE = 7

#: Version number both side protocols conventionally carry (``ntpq``
#: and ``ntpdc`` stamp VN=2 regardless of the daemon's NTP version).
CONTROL_VERSION = 2


def peek_mode(data: bytes) -> Optional[int]:
    """The mode bits of a packet's first byte (None for empty input).

    Lets a server dispatch mode-6/7 traffic *before* attempting the
    48-byte RFC 5905 decode — control packets are shorter than a time
    packet and would otherwise count as malformed.
    """
    if not data:
        return None
    return data[0] & 0x7


# -- mode 6: the control protocol (RFC 1305 appendix B) ----------------------

#: LI/VN/mode, R|E|M+opcode, sequence, status, association, offset, count.
_CONTROL_HEADER = struct.Struct("!BBHHHHH")

CONTROL_HEADER_SIZE = _CONTROL_HEADER.size  # 12

#: Control opcodes (the two ``ntpq`` uses for reconnaissance).
OP_READSTAT = 1
OP_READVAR = 2

#: Largest data window one control fragment carries (RFC 1305: the data
#: area holds at most 468 octets).
MAX_CONTROL_DATA = 468


class ControlDecodeError(NtpDecodeError):
    """Raised when bytes do not form a valid mode-6 control packet."""


@dataclass(frozen=True)
class ControlPacket:
    """One mode-6 control packet (request or response fragment)."""

    opcode: int = OP_READVAR
    sequence: int = 0
    status: int = 0
    association_id: int = 0
    offset: int = 0
    data: bytes = b""
    response: bool = False
    error: bool = False
    more: bool = False
    version: int = CONTROL_VERSION

    @property
    def count(self) -> int:
        """The data window's length (the wire's *count* field)."""
        return len(self.data)

    def encode(self) -> bytes:
        """Serialize to wire format (data zero-padded to 32 bits)."""
        if not 1 <= self.version <= 7:
            raise ValueError(
                f"control version out of range: {self.version}")
        if not 0 <= self.opcode <= 0x1F:
            raise ValueError(f"control opcode out of range: {self.opcode}")
        for name in ("sequence", "status", "association_id", "offset"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"control {name} out of range: {value}")
        if len(self.data) > MAX_CONTROL_DATA:
            raise ValueError(
                f"control data too long: {len(self.data)} > "
                f"{MAX_CONTROL_DATA}")
        first = ((self.version & 0x7) << 3) | MODE_CONTROL
        flags = ((0x80 if self.response else 0)
                 | (0x40 if self.error else 0)
                 | (0x20 if self.more else 0)
                 | (self.opcode & 0x1F))
        header = _CONTROL_HEADER.pack(
            first, flags, self.sequence, self.status,
            self.association_id, self.offset, len(self.data))
        padding = b"\0" * (-len(self.data) % 4)
        return header + self.data + padding

    @classmethod
    def decode(cls, data: bytes) -> "ControlPacket":
        """Parse wire bytes; raises :class:`ControlDecodeError`."""
        if len(data) < CONTROL_HEADER_SIZE:
            raise ControlDecodeError(
                f"control packet too short: {len(data)} < "
                f"{CONTROL_HEADER_SIZE} bytes")
        (first, flags, sequence, status, association_id, offset,
         count) = _CONTROL_HEADER.unpack(data[:CONTROL_HEADER_SIZE])
        if first & 0x7 != MODE_CONTROL:
            raise ControlDecodeError(
                f"mode {first & 0x7} is not a control packet")
        version = (first >> 3) & 0x7
        if version == 0:
            raise ControlDecodeError("control version 0 is invalid")
        payload = data[CONTROL_HEADER_SIZE:]
        if count > len(payload):
            raise ControlDecodeError(
                f"control count {count} exceeds the {len(payload)} data "
                "bytes present")
        return cls(
            opcode=flags & 0x1F,
            sequence=sequence,
            status=status,
            association_id=association_id,
            offset=offset,
            data=payload[:count],
            response=bool(flags & 0x80),
            error=bool(flags & 0x40),
            more=bool(flags & 0x20),
            version=version,
        )


def readvar_request(sequence: int = 0) -> ControlPacket:
    """The ``ntpq -c rv`` request: read the system variables."""
    return ControlPacket(opcode=OP_READVAR, sequence=sequence)


def fragment_response(request: ControlPacket, data: bytes, *,
                      mtu: int = MAX_CONTROL_DATA) -> List[ControlPacket]:
    """Window ``data`` into the request's response fragments.

    Every fragment mirrors the request's opcode/sequence/association,
    carries its offset/count window, and sets the *more* bit on all but
    the last — exactly the reassembly contract ``ntpq`` implements.  An
    empty payload still produces one (empty) response packet.
    """
    if not 1 <= mtu <= MAX_CONTROL_DATA:
        raise ValueError(f"mtu={mtu}: must be in [1, {MAX_CONTROL_DATA}]")
    windows = [data[start:start + mtu]
               for start in range(0, len(data), mtu)] or [b""]
    return [
        ControlPacket(
            opcode=request.opcode, sequence=request.sequence,
            association_id=request.association_id,
            offset=index * mtu, data=window, response=True,
            more=index < len(windows) - 1, version=request.version)
        for index, window in enumerate(windows)
    ]


def reassemble(fragments: Iterable[ControlPacket]) -> bytes:
    """Stitch response fragments back into the full data payload.

    Fragments may arrive in any order; offsets must tile the payload
    contiguously and exactly one fragment (the window ending last) may
    clear the *more* bit.  Raises :class:`ControlDecodeError` on gaps,
    overlaps, or a missing/extra final fragment.
    """
    ordered = sorted(fragments, key=lambda fragment: fragment.offset)
    if not ordered:
        raise ControlDecodeError("no control fragments to reassemble")
    data = b""
    for index, fragment in enumerate(ordered):
        if not fragment.response:
            raise ControlDecodeError(
                f"fragment at offset {fragment.offset} is not a response")
        if fragment.offset != len(data):
            raise ControlDecodeError(
                f"fragment offset {fragment.offset} does not continue "
                f"the {len(data)} bytes reassembled so far")
        data += fragment.data
        last = index == len(ordered) - 1
        if fragment.more == last:
            raise ControlDecodeError(
                f"fragment at offset {fragment.offset} has more="
                f"{fragment.more} but is{'' if last else ' not'} final")
    return data


# -- mode 7: the private protocol (monlist) ----------------------------------

#: R|M|VN|mode, A|sequence, implementation, reqcode, err|nitems, mbz|size.
_PRIVATE_HEADER = struct.Struct("!BBBBHH")

PRIVATE_HEADER_SIZE = _PRIVATE_HEADER.size  # 8

#: The classic ``ntpd`` implementation number ``ntpdc`` speaks to.
IMPL_XNTPD = 3

#: The monlist request code (MON_GETLIST_1).
REQ_MON_GETLIST_1 = 42

#: Mode-7 error codes (the subset the simulation emits).
ERR_NONE = 0
ERR_REQ_DENIED = 3

#: A monlist request is a fixed-size packet: 8-byte header plus a
#: zeroed data area (the auth/padding region legacy ntpdc always sent).
MONLIST_REQUEST_SIZE = 72

#: One recent-client record on the wire.
MONLIST_ENTRY_SIZE = 72

#: Entries per response packet: 6 × 72 + 8 = 440-byte responses, the
#: amplification payload the DRDoS literature measures.
MONLIST_ENTRIES_PER_PACKET = 6

MONLIST_PACKET_SIZE = (PRIVATE_HEADER_SIZE
                       + MONLIST_ENTRIES_PER_PACKET * MONLIST_ENTRY_SIZE)


class PrivateDecodeError(NtpDecodeError):
    """Raised when bytes do not form a valid mode-7 private packet."""


@dataclass(frozen=True)
class PrivatePacket:
    """One mode-7 private packet (request or response fragment)."""

    request_code: int = REQ_MON_GETLIST_1
    implementation: int = IMPL_XNTPD
    sequence: int = 0
    err: int = ERR_NONE
    nitems: int = 0
    size: int = 0
    data: bytes = b""
    response: bool = False
    more: bool = False
    auth: bool = False
    version: int = CONTROL_VERSION

    def encode(self) -> bytes:
        """Serialize to wire format."""
        if not 1 <= self.version <= 7:
            raise ValueError(
                f"private version out of range: {self.version}")
        if not 0 <= self.sequence <= 0x7F:
            raise ValueError(
                f"private sequence out of range: {self.sequence}")
        if not 0 <= self.err <= 0xF:
            raise ValueError(f"private err out of range: {self.err}")
        if not 0 <= self.nitems <= 0xFFF:
            raise ValueError(
                f"private nitems out of range: {self.nitems}")
        if not 0 <= self.size <= 0xFFF:
            raise ValueError(f"private size out of range: {self.size}")
        for name in ("request_code", "implementation"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFF:
                raise ValueError(f"private {name} out of range: {value}")
        if self.nitems * self.size > len(self.data):
            raise ValueError(
                f"private data holds {len(self.data)} bytes but "
                f"nitems*size claims {self.nitems * self.size}")
        first = ((0x80 if self.response else 0)
                 | (0x40 if self.more else 0)
                 | ((self.version & 0x7) << 3) | MODE_PRIVATE)
        second = (0x80 if self.auth else 0) | (self.sequence & 0x7F)
        header = _PRIVATE_HEADER.pack(
            first, second, self.implementation, self.request_code,
            ((self.err & 0xF) << 12) | (self.nitems & 0xFFF),
            self.size & 0xFFF)
        return header + self.data

    @classmethod
    def decode(cls, data: bytes) -> "PrivatePacket":
        """Parse wire bytes; raises :class:`PrivateDecodeError`."""
        if len(data) < PRIVATE_HEADER_SIZE:
            raise PrivateDecodeError(
                f"private packet too short: {len(data)} < "
                f"{PRIVATE_HEADER_SIZE} bytes")
        (first, second, implementation, request_code, err_nitems,
         mbz_size) = _PRIVATE_HEADER.unpack(data[:PRIVATE_HEADER_SIZE])
        if first & 0x7 != MODE_PRIVATE:
            raise PrivateDecodeError(
                f"mode {first & 0x7} is not a private packet")
        version = (first >> 3) & 0x7
        if version == 0:
            raise PrivateDecodeError("private version 0 is invalid")
        nitems = err_nitems & 0xFFF
        size = mbz_size & 0xFFF
        payload = data[PRIVATE_HEADER_SIZE:]
        if nitems * size > len(payload):
            raise PrivateDecodeError(
                f"private nitems*size {nitems * size} exceeds the "
                f"{len(payload)} data bytes present")
        return cls(
            request_code=request_code,
            implementation=implementation,
            sequence=second & 0x7F,
            err=(err_nitems >> 12) & 0xF,
            nitems=nitems,
            size=size,
            data=payload,
            response=bool(first & 0x80),
            more=bool(first & 0x40),
            auth=bool(second & 0x80),
            version=version,
        )


#: Wire layout of one monlist entry's meaningful fields; the remainder
#: of the 72-byte record is zero padding (the v4/v6 dual-stack fields
#: legacy ntpd carried).
_MONLIST_ENTRY = struct.Struct("!IIQQHBB")

_ENTRY_PAD = MONLIST_ENTRY_SIZE - _MONLIST_ENTRY.size - 16


@dataclass(frozen=True)
class MonlistEntry:
    """One recent client as a monlist response reports it."""

    #: The client's IPv6 address (16 bytes on the wire).
    address: int
    #: The client's source port.
    port: int = 0
    #: Packets received from the client.
    count: int = 1
    #: NTP mode of the client's last packet.
    mode: int = 3
    #: NTP version of the client's last packet.
    version: int = 4
    #: Seconds since the client's last packet.
    last_seen: int = 0
    #: Seconds since the client's first packet.
    first_seen: int = 0

    def encode(self) -> bytes:
        """Serialize one 72-byte record."""
        if not 0 <= self.address < (1 << 128):
            raise ValueError(f"address out of range: {self.address:#x}")
        for name, bound in (("port", 0xFFFF), ("mode", 0xFF),
                            ("version", 0xFF)):
            value = getattr(self, name)
            if not 0 <= value <= bound:
                raise ValueError(f"monlist {name} out of range: {value}")
        for name in ("count", "last_seen", "first_seen"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"monlist {name} out of range: {value}")
        packed = _MONLIST_ENTRY.pack(
            self.last_seen, self.first_seen, self.count, 0,
            self.port, self.mode, self.version)
        return (packed + self.address.to_bytes(16, "big")
                + b"\0" * _ENTRY_PAD)

    @classmethod
    def decode(cls, data: bytes) -> "MonlistEntry":
        """Parse one 72-byte record."""
        if len(data) != MONLIST_ENTRY_SIZE:
            raise PrivateDecodeError(
                f"monlist entry must be {MONLIST_ENTRY_SIZE} bytes, "
                f"got {len(data)}")
        (last_seen, first_seen, count, _, port, mode,
         version) = _MONLIST_ENTRY.unpack(data[:_MONLIST_ENTRY.size])
        start = _MONLIST_ENTRY.size
        address = int.from_bytes(data[start:start + 16], "big")
        return cls(address=address, port=port, count=count, mode=mode,
                   version=version, last_seen=last_seen,
                   first_seen=first_seen)


def monlist_request(sequence: int = 0) -> PrivatePacket:
    """The classic 72-byte MON_GETLIST_1 request."""
    return PrivatePacket(
        request_code=REQ_MON_GETLIST_1, sequence=sequence,
        data=b"\0" * (MONLIST_REQUEST_SIZE - PRIVATE_HEADER_SIZE))


def is_monlist_request(packet: PrivatePacket) -> bool:
    """Whether a decoded mode-7 packet asks for the monitor list."""
    return (not packet.response
            and packet.implementation == IMPL_XNTPD
            and packet.request_code == REQ_MON_GETLIST_1)


def monlist_response(entries: Sequence[MonlistEntry], *,
                     sequence: int = 0) -> List[PrivatePacket]:
    """Fragment a recent-client table into the response train.

    Up to :data:`MONLIST_ENTRIES_PER_PACKET` entries per packet, the
    *more* bit set on every packet but the last.  An empty table yields
    one empty response (err 0, nitems 0) — the "nothing monitored yet"
    answer, still distinct from the silence of a patched server.
    """
    encoded = [entry.encode() for entry in entries]
    groups = [encoded[start:start + MONLIST_ENTRIES_PER_PACKET]
              for start in range(0, len(encoded),
                                 MONLIST_ENTRIES_PER_PACKET)] or [[]]
    return [
        PrivatePacket(
            request_code=REQ_MON_GETLIST_1, sequence=sequence,
            nitems=len(group), size=MONLIST_ENTRY_SIZE if group else 0,
            data=b"".join(group), response=True,
            more=index < len(groups) - 1)
        for index, group in enumerate(groups)
    ]


def monlist_deny(sequence: int = 0) -> PrivatePacket:
    """An explicit mode-7 denial (err REQ_DENIED, no data)."""
    return PrivatePacket(
        request_code=REQ_MON_GETLIST_1, sequence=sequence,
        err=ERR_REQ_DENIED, response=True)


def decode_monlist(payloads: Iterable[bytes]
                   ) -> Tuple[List[MonlistEntry], int]:
    """Decode a monlist response train into ``(entries, err)``.

    Accepts the raw response payloads in arrival order; validates the
    more-bit chain (every packet but the last must announce more) and
    each packet's nitems/size framing.  A non-zero ``err`` short-
    circuits with no entries.
    """
    packets = [PrivatePacket.decode(payload) for payload in payloads]
    if not packets:
        raise PrivateDecodeError("no monlist packets to decode")
    entries: List[MonlistEntry] = []
    for index, packet in enumerate(packets):
        if not packet.response:
            raise PrivateDecodeError(
                f"monlist packet {index} is not a response")
        if packet.request_code != REQ_MON_GETLIST_1:
            raise PrivateDecodeError(
                f"monlist packet {index} answers request code "
                f"{packet.request_code}, not {REQ_MON_GETLIST_1}")
        if packet.err:
            return [], packet.err
        last = index == len(packets) - 1
        if packet.more == last:
            raise PrivateDecodeError(
                f"monlist packet {index} has more={packet.more} but "
                f"is{'' if last else ' not'} final")
        if packet.size not in (0, MONLIST_ENTRY_SIZE):
            raise PrivateDecodeError(
                f"monlist packet {index} reports entry size "
                f"{packet.size}, not {MONLIST_ENTRY_SIZE}")
        for item in range(packet.nitems):
            start = item * MONLIST_ENTRY_SIZE
            entries.append(MonlistEntry.decode(
                packet.data[start:start + MONLIST_ENTRY_SIZE]))
    return entries, ERR_NONE
