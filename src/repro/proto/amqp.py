"""AMQP 0-9-1 connection establishment, as far as a scan needs it.

An AMQP session opens with the 8-byte protocol header
``AMQP\\x00\\x00\\x09\\x01``; the broker replies with a
``Connection.Start`` method frame advertising its SASL mechanisms.  The
scan then attempts an ``ANONYMOUS``/guest ``Start-Ok``; brokers with
access control reply with an access-refused ``Connection.Close``, open
brokers proceed to ``Connection.Tune`` — the paper's Figure 3 signal.

Frames follow the real grammar (type, channel, size, payload, 0xCE
end octet) with method payloads carrying class/method IDs; the method
arguments are condensed to the fields the scan reads (mechanism list,
server product, reply code/text).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

#: The protocol header initiating every AMQP 0-9-1 connection.
PROTOCOL_HEADER = b"AMQP\x00\x00\x09\x01"

#: Frame end octet (RabbitMQ calls this the frame-end marker).
FRAME_END = 0xCE

FRAME_METHOD = 1

CLASS_CONNECTION = 10
METHOD_START = 10
METHOD_START_OK = 11
METHOD_TUNE = 30
METHOD_CLOSE = 50

#: AMQP soft-error code for refused access.
ACCESS_REFUSED = 403


class AmqpDecodeError(ValueError):
    """Raised on malformed AMQP frames."""


def _short_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 255:
        raise ValueError("short string too long")
    return bytes((len(raw),)) + raw


def _read_short_str(data: bytes, offset: int) -> Tuple[str, int]:
    if offset >= len(data):
        raise AmqpDecodeError("truncated short string")
    length = data[offset]
    start = offset + 1
    raw = data[start:start + length]
    if len(raw) != length:
        raise AmqpDecodeError("truncated short string body")
    try:
        return raw.decode("utf-8"), start + length
    except UnicodeDecodeError as exc:
        raise AmqpDecodeError("short string is not valid UTF-8") from exc


def encode_frame(channel: int, payload: bytes) -> bytes:
    """Wrap a method payload in the AMQP frame envelope."""
    return (
        struct.pack("!BHI", FRAME_METHOD, channel, len(payload))
        + payload
        + bytes((FRAME_END,))
    )


def decode_frame(data: bytes) -> Tuple[int, int, bytes]:
    """Unwrap one frame; returns (frame_type, channel, payload)."""
    if len(data) < 8:
        raise AmqpDecodeError("frame too short")
    frame_type, channel, size = struct.unpack_from("!BHI", data, 0)
    payload = data[7:7 + size]
    if len(payload) != size:
        raise AmqpDecodeError("truncated frame payload")
    if len(data) < 8 + size or data[7 + size] != FRAME_END:
        raise AmqpDecodeError("missing frame-end octet")
    return frame_type, channel, payload


@dataclass(frozen=True)
class ConnectionStart:
    """Connection.Start: what the broker advertises before auth."""

    product: str
    mechanisms: Tuple[str, ...]

    def encode(self) -> bytes:
        payload = struct.pack("!HH", CLASS_CONNECTION, METHOD_START)
        payload += _short_str(self.product)
        payload += _short_str(" ".join(self.mechanisms))
        return encode_frame(0, payload)

    @classmethod
    def from_payload(cls, payload: bytes) -> "ConnectionStart":
        class_id, method_id = struct.unpack_from("!HH", payload, 0)
        if (class_id, method_id) != (CLASS_CONNECTION, METHOD_START):
            raise AmqpDecodeError("not Connection.Start")
        product, offset = _read_short_str(payload, 4)
        mechanisms, _ = _read_short_str(payload, offset)
        return cls(product=product, mechanisms=tuple(mechanisms.split()))


@dataclass(frozen=True)
class ConnectionStartOk:
    """Connection.Start-Ok: the client's chosen mechanism + response."""

    mechanism: str
    response: str = ""

    def encode(self) -> bytes:
        payload = struct.pack("!HH", CLASS_CONNECTION, METHOD_START_OK)
        payload += _short_str(self.mechanism)
        payload += _short_str(self.response)
        return encode_frame(0, payload)

    @classmethod
    def from_payload(cls, payload: bytes) -> "ConnectionStartOk":
        class_id, method_id = struct.unpack_from("!HH", payload, 0)
        if (class_id, method_id) != (CLASS_CONNECTION, METHOD_START_OK):
            raise AmqpDecodeError("not Connection.Start-Ok")
        mechanism, offset = _read_short_str(payload, 4)
        response, _ = _read_short_str(payload, offset)
        return cls(mechanism=mechanism, response=response)


@dataclass(frozen=True)
class ConnectionTune:
    """Connection.Tune: authentication succeeded, negotiate limits."""

    channel_max: int = 2047
    frame_max: int = 131072

    def encode(self) -> bytes:
        payload = struct.pack(
            "!HHHI", CLASS_CONNECTION, METHOD_TUNE,
            self.channel_max, self.frame_max,
        )
        return encode_frame(0, payload)

    @classmethod
    def from_payload(cls, payload: bytes) -> "ConnectionTune":
        class_id, method_id, channel_max, frame_max = struct.unpack_from(
            "!HHHI", payload, 0
        )
        if (class_id, method_id) != (CLASS_CONNECTION, METHOD_TUNE):
            raise AmqpDecodeError("not Connection.Tune")
        return cls(channel_max=channel_max, frame_max=frame_max)


@dataclass(frozen=True)
class ConnectionClose:
    """Connection.Close carrying a reply code (403 = access refused)."""

    reply_code: int
    reply_text: str = ""

    def encode(self) -> bytes:
        payload = struct.pack("!HHH", CLASS_CONNECTION, METHOD_CLOSE,
                              self.reply_code)
        payload += _short_str(self.reply_text)
        return encode_frame(0, payload)

    @classmethod
    def from_payload(cls, payload: bytes) -> "ConnectionClose":
        class_id, method_id, reply_code = struct.unpack_from("!HHH", payload, 0)
        if (class_id, method_id) != (CLASS_CONNECTION, METHOD_CLOSE):
            raise AmqpDecodeError("not Connection.Close")
        reply_text, _ = _read_short_str(payload, 6)
        return cls(reply_code=reply_code, reply_text=reply_text)


def parse_method(data: bytes):
    """Decode one method frame into its dataclass."""
    frame_type, _, payload = decode_frame(data)
    if frame_type != FRAME_METHOD or len(payload) < 4:
        raise AmqpDecodeError("not a method frame")
    class_id, method_id = struct.unpack_from("!HH", payload, 0)
    decoders = {
        (CLASS_CONNECTION, METHOD_START): ConnectionStart.from_payload,
        (CLASS_CONNECTION, METHOD_START_OK): ConnectionStartOk.from_payload,
        (CLASS_CONNECTION, METHOD_TUNE): ConnectionTune.from_payload,
        (CLASS_CONNECTION, METHOD_CLOSE): ConnectionClose.from_payload,
    }
    decoder = decoders.get((class_id, method_id))
    if decoder is None:
        raise AmqpDecodeError(f"unknown method {class_id}.{method_id}")
    try:
        return decoder(payload)
    except struct.error as exc:
        raise AmqpDecodeError("truncated method arguments") from exc


class AmqpBrokerSession:
    """Server side of broker connection establishment.

    ``require_auth`` distinguishes professionally run brokers (PLAIN
    only, anonymous refused) from open ones (ANONYMOUS accepted).
    """

    #: The product name ``Connection.Start`` advertises.
    product = "SimRabbit 3.12"

    def __init__(self, *, require_auth: bool) -> None:
        self.require_auth = require_auth
        self.closed = False
        self._started = False

    def greeting(self) -> bytes:
        return b""

    def on_data(self, data: bytes) -> Optional[bytes]:
        if not self._started:
            if data != PROTOCOL_HEADER:
                # Not AMQP: a conforming broker replies with its header
                # and closes (RabbitMQ behaviour).
                self.closed = True
                return PROTOCOL_HEADER
            self._started = True
            mechanisms = ("PLAIN",) if self.require_auth else ("PLAIN", "ANONYMOUS")
            return ConnectionStart(
                product=self.product, mechanisms=mechanisms
            ).encode()
        try:
            method = parse_method(data)
        except AmqpDecodeError:
            self.closed = True
            return None
        if isinstance(method, ConnectionStartOk):
            if method.mechanism == "ANONYMOUS" and not self.require_auth:
                return ConnectionTune().encode()
            self.closed = True
            return ConnectionClose(
                reply_code=ACCESS_REFUSED, reply_text="ACCESS_REFUSED"
            ).encode()
        return None


@dataclass(frozen=True)
class AmqpSessionFactory:
    """Picklable factory producing :class:`AmqpBrokerSession` instances
    (see :class:`repro.proto.http.HttpSessionFactory` for why services
    are bound as factory objects, not closures)."""

    require_auth: bool

    def __call__(self) -> AmqpBrokerSession:
        return AmqpBrokerSession(require_auth=self.require_auth)
