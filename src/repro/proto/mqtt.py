"""MQTT 3.1.1 control packets: CONNECT / CONNACK, wire-accurate.

The broker scan sends a real CONNECT packet (fixed header ``0x10``,
varint remaining length, ``MQTT``/level-4 variable header, client ID,
optional username/password) and classifies the broker by its CONNACK
return code — the paper's access-control signal (Figure 3):

* return code 0 with no credentials  → broker is **open**;
* return code 4/5 without creds      → broker **enforces access control**.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

#: CONNACK return codes (MQTT 3.1.1 §3.2.2.3).
ACCEPTED = 0
REFUSED_PROTOCOL = 1
REFUSED_IDENTIFIER = 2
REFUSED_UNAVAILABLE = 3
REFUSED_BAD_CREDENTIALS = 4
REFUSED_NOT_AUTHORIZED = 5

_PROTOCOL_NAME = b"\x00\x04MQTT"
_PROTOCOL_LEVEL = 4


class MqttDecodeError(ValueError):
    """Raised on malformed MQTT packets."""


def encode_varint(value: int) -> bytes:
    """MQTT's variable-length remaining-length encoding."""
    if not 0 <= value <= 268_435_455:
        raise ValueError(f"varint out of range: {value}")
    out = bytearray()
    while True:
        digit = value % 128
        value //= 128
        if value:
            out.append(digit | 0x80)
        else:
            out.append(digit)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint; returns (value, bytes_consumed)."""
    multiplier = 1
    value = 0
    consumed = 0
    while True:
        if offset + consumed >= len(data) or consumed >= 4:
            raise MqttDecodeError("truncated or overlong varint")
        digit = data[offset + consumed]
        value += (digit & 0x7F) * multiplier
        multiplier *= 128
        consumed += 1
        if not digit & 0x80:
            return value, consumed


def _utf8_field(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("!H", len(raw)) + raw


def _read_utf8(data: bytes, offset: int) -> tuple[str, int]:
    start = offset + 2
    if start > len(data):
        raise MqttDecodeError("truncated UTF-8 field length")
    (length,) = struct.unpack_from("!H", data, offset)
    raw = data[start:start + length]
    if len(raw) != length:
        raise MqttDecodeError("truncated UTF-8 field")
    try:
        return raw.decode("utf-8"), start + length
    except UnicodeDecodeError as exc:
        raise MqttDecodeError("UTF-8 field is not valid UTF-8") from exc


@dataclass(frozen=True)
class ConnectPacket:
    """An MQTT CONNECT, restricted to the fields scans use."""

    client_id: str
    username: Optional[str] = None
    password: Optional[str] = None
    keepalive: int = 60
    clean_session: bool = True

    def encode(self) -> bytes:
        flags = 0x02 if self.clean_session else 0x00
        payload = _utf8_field(self.client_id)
        if self.username is not None:
            flags |= 0x80
            payload += _utf8_field(self.username)
        if self.password is not None:
            if self.username is None:
                raise ValueError("MQTT forbids password without username")
            flags |= 0x40
            payload += _utf8_field(self.password)
        variable = (
            _PROTOCOL_NAME
            + bytes((_PROTOCOL_LEVEL, flags))
            + struct.pack("!H", self.keepalive)
        )
        body = variable + payload
        return b"\x10" + encode_varint(len(body)) + body

    @classmethod
    def decode(cls, data: bytes) -> "ConnectPacket":
        if not data or data[0] != 0x10:
            raise MqttDecodeError("not a CONNECT packet")
        remaining, consumed = decode_varint(data, 1)
        body = data[1 + consumed:1 + consumed + remaining]
        if len(body) != remaining:
            raise MqttDecodeError("truncated CONNECT body")
        if body[:6] != _PROTOCOL_NAME:
            raise MqttDecodeError("unexpected protocol name")
        if len(body) < 10:
            raise MqttDecodeError("truncated CONNECT variable header")
        level = body[6]
        if level != _PROTOCOL_LEVEL:
            raise MqttDecodeError(f"unsupported protocol level {level}")
        flags = body[7]
        offset = 10
        client_id, offset = _read_utf8(body, offset)
        username = password = None
        if flags & 0x80:
            username, offset = _read_utf8(body, offset)
        if flags & 0x40:
            password, offset = _read_utf8(body, offset)
        return cls(
            client_id=client_id,
            username=username,
            password=password,
            keepalive=struct.unpack_from("!H", body, 8)[0],
            clean_session=bool(flags & 0x02),
        )


@dataclass(frozen=True)
class ConnackPacket:
    """The broker's CONNACK reply."""

    return_code: int
    session_present: bool = False

    def encode(self) -> bytes:
        return bytes((0x20, 0x02, int(self.session_present), self.return_code))

    @classmethod
    def decode(cls, data: bytes) -> "ConnackPacket":
        if len(data) < 4 or data[0] != 0x20 or data[1] != 0x02:
            raise MqttDecodeError("not a CONNACK packet")
        return cls(return_code=data[3], session_present=bool(data[2] & 0x01))


class MqttBrokerSession:
    """Server side of one broker connection.

    ``require_auth`` models access control: anonymous CONNECTs get
    return code 5; CONNECTs carrying credentials are checked against
    the configured pair (scans never know valid credentials, so any
    guess yields 4).
    """

    #: The one credential pair a secured broker accepts.
    username = "admin"
    password = "admin"

    def __init__(self, *, require_auth: bool) -> None:
        self.require_auth = require_auth
        self.closed = False

    def greeting(self) -> bytes:
        return b""

    def on_data(self, data: bytes) -> Optional[bytes]:
        try:
            connect = ConnectPacket.decode(data)
        except MqttDecodeError:
            self.closed = True
            return None
        if not self.require_auth:
            return ConnackPacket(return_code=ACCEPTED).encode()
        if connect.username is None:
            self.closed = True
            return ConnackPacket(return_code=REFUSED_NOT_AUTHORIZED).encode()
        if (connect.username, connect.password) == (self.username, self.password):
            return ConnackPacket(return_code=ACCEPTED).encode()
        self.closed = True
        return ConnackPacket(return_code=REFUSED_BAD_CREDENTIALS).encode()


@dataclass(frozen=True)
class MqttSessionFactory:
    """Picklable factory producing :class:`MqttBrokerSession` instances
    (see :class:`repro.proto.http.HttpSessionFactory` for why services
    are bound as factory objects, not closures)."""

    require_auth: bool

    def __call__(self) -> MqttBrokerSession:
        return MqttBrokerSession(require_auth=self.require_auth)
