"""RFC 7252 CoAP over UDP: message codec and resource-directory sessions.

The CoAP scan sends a confirmable ``GET /.well-known/core`` and parses
the RFC 6690 link-format payload to learn the device's advertised
resources — the basis of the paper's CoAP device grouping (castdevice,
qlink, efento, nanoleaf, …).

The codec implements the real header (version/type/TKL, code,
message-ID, token), option delta/length encoding for the options scans
need (Uri-Path 11, Content-Format 12), and piggybacked 2.05 responses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Message types.
CON, NON, ACK, RST = 0, 1, 2, 3

#: Method and response codes (class.detail packed as class<<5 | detail).
GET = 0x01
CONTENT_205 = (2 << 5) | 5
NOT_FOUND_404 = (4 << 5) | 4

#: Option numbers.
OPT_URI_PATH = 11
OPT_CONTENT_FORMAT = 12

#: Content-Format: application/link-format.
FORMAT_LINK = 40

#: Default CoAP port.
COAP_PORT = 5683

#: The discovery path every scan asks for first.
WELL_KNOWN_CORE = ("/.well-known/core")


class CoapDecodeError(ValueError):
    """Raised on malformed CoAP messages."""


def _encode_option_parts(value: int) -> Tuple[int, bytes]:
    """Encode a delta/length nibble with its extended bytes."""
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes((value - 13,))
    return 14, struct.pack("!H", value - 269)


def _decode_option_part(nibble: int, data: bytes, offset: int) -> Tuple[int, int]:
    """Decode a delta/length nibble; returns (value, new_offset)."""
    if nibble < 13:
        return nibble, offset
    if nibble == 13:
        if offset >= len(data):
            raise CoapDecodeError("truncated extended option byte")
        return data[offset] + 13, offset + 1
    if nibble == 14:
        if offset + 2 > len(data):
            raise CoapDecodeError("truncated extended option word")
        return struct.unpack_from("!H", data, offset)[0] + 269, offset + 2
    raise CoapDecodeError("reserved option nibble 15")


@dataclass
class CoapMessage:
    """One CoAP message with its options."""

    mtype: int = CON
    code: int = GET
    message_id: int = 0
    token: bytes = b""
    options: List[Tuple[int, bytes]] = field(default_factory=list)
    payload: bytes = b""

    def encode(self) -> bytes:
        if len(self.token) > 8:
            raise ValueError("token longer than 8 bytes")
        header = struct.pack(
            "!BBH",
            (1 << 6) | ((self.mtype & 0x3) << 4) | len(self.token),
            self.code,
            self.message_id,
        )
        out = bytearray(header)
        out += self.token
        last_number = 0
        for number, value in sorted(self.options, key=lambda item: item[0]):
            delta_nibble, delta_ext = _encode_option_parts(number - last_number)
            length_nibble, length_ext = _encode_option_parts(len(value))
            out.append((delta_nibble << 4) | length_nibble)
            out += delta_ext + length_ext + value
            last_number = number
        if self.payload:
            out.append(0xFF)
            out += self.payload
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "CoapMessage":
        if len(data) < 4:
            raise CoapDecodeError("message shorter than base header")
        first, code, message_id = struct.unpack_from("!BBH", data, 0)
        version = first >> 6
        if version != 1:
            raise CoapDecodeError(f"unsupported CoAP version {version}")
        token_length = first & 0x0F
        if token_length > 8:
            raise CoapDecodeError("token length > 8 is reserved")
        offset = 4
        token = data[offset:offset + token_length]
        if len(token) != token_length:
            raise CoapDecodeError("truncated token")
        offset += token_length
        options: List[Tuple[int, bytes]] = []
        number = 0
        while offset < len(data):
            byte = data[offset]
            if byte == 0xFF:
                offset += 1
                break
            offset += 1
            delta, offset = _decode_option_part(byte >> 4, data, offset)
            length, offset = _decode_option_part(byte & 0x0F, data, offset)
            value = data[offset:offset + length]
            if len(value) != length:
                raise CoapDecodeError("truncated option value")
            offset += length
            number += delta
            options.append((number, value))
        return cls(
            mtype=(first >> 4) & 0x3,
            code=code,
            message_id=message_id,
            token=token,
            options=options,
            payload=data[offset:],
        )

    @property
    def uri_path(self) -> str:
        """Reassemble the Uri-Path options into a path string."""
        segments = [value.decode("utf-8", "replace")
                    for number, value in self.options if number == OPT_URI_PATH]
        return "/" + "/".join(segments)


def get_request(path: str, message_id: int) -> CoapMessage:
    """Build a confirmable GET for ``path`` (token ``0x01``)."""
    options = [
        (OPT_URI_PATH, segment.encode("utf-8"))
        for segment in path.strip("/").split("/") if segment
    ]
    return CoapMessage(mtype=CON, code=GET, message_id=message_id,
                       token=b"\x01", options=options)


def content_response(request: CoapMessage, payload: bytes,
                     content_format: int = FORMAT_LINK) -> CoapMessage:
    """Piggybacked 2.05 Content response mirroring MID and token."""
    return CoapMessage(
        mtype=ACK, code=CONTENT_205, message_id=request.message_id,
        token=request.token,
        options=[(OPT_CONTENT_FORMAT, bytes((content_format,)))],
        payload=payload,
    )


def encode_link_format(resources: Sequence[str]) -> bytes:
    """RFC 6690 link-format: ``</a>,</b/c>``."""
    return ",".join(f"<{resource}>" for resource in resources).encode("utf-8")


def parse_link_format(payload: bytes) -> List[str]:
    """Parse link-format, tolerating attributes (``</a>;rt=\"x\"``)."""
    resources = []
    for part in payload.decode("utf-8", "replace").split(","):
        part = part.strip()
        if not part:
            continue
        link = part.split(";", 1)[0].strip()
        if link.startswith("<") and link.endswith(">"):
            resources.append(link[1:-1])
    return resources


class CoapResourceServer:
    """UDP handler advertising a fixed resource set.

    Answers ``GET /.well-known/core`` with the link-format directory and
    direct GETs on known resources with a small canned payload.
    """

    #: Canned bodies by resource path; any other known resource
    #: answers ``{}``.
    payloads: Dict[str, bytes] = {}

    def __init__(self, resources: Sequence[str]) -> None:
        self.resources = list(resources)

    def __call__(self, datagram) -> Optional[bytes]:
        try:
            request = CoapMessage.decode(datagram.payload)
        except CoapDecodeError:
            return None
        if request.code != GET:
            return None
        path = request.uri_path
        if path == WELL_KNOWN_CORE:
            payload = encode_link_format(self.resources)
            return content_response(request, payload).encode()
        if path in self.resources:
            body = self.payloads.get(path, b"{}")
            return content_response(request, body, content_format=0).encode()
        response = CoapMessage(
            mtype=ACK, code=NOT_FOUND_404,
            message_id=request.message_id, token=request.token,
        )
        return response.encode()
