"""A miniature TLS: record layer, ClientHello/ServerHello, alerts.

This is not a secure channel — it is the *observable surface* of a TLS
handshake, at byte level: the scanner sends a ClientHello record
(optionally with an SNI extension), and the server answers either with
a ServerHello + Certificate record or with a fatal alert.

Implementing the SNI path for real matters: the paper attributes the
TUM hitlist's abysmal HTTPS success rate to hundreds of millions of
CDN (Cloudfront) front addresses that abort the handshake when the
probe carries no hostname.  Our CDN device model requires SNI and
answers ``unrecognized_name`` otherwise, reproducing that artefact
through the same mechanism.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.simnet import Stream
from repro.tlslib.certificate import Certificate, CertificateDecodeError

#: TLS record content types.
RECORD_HANDSHAKE = 22
RECORD_ALERT = 21

#: Handshake message types.
HS_CLIENT_HELLO = 1
HS_SERVER_HELLO = 2
HS_CERTIFICATE = 11

#: TLS 1.2 wire version.
VERSION = 0x0303

#: Alert descriptions.
ALERT_HANDSHAKE_FAILURE = 40
ALERT_UNRECOGNIZED_NAME = 112

#: The fixed 32-byte randoms of every ClientHello and ServerHello (the
#: simulation needs no fresh key exchange).
CLIENT_RANDOM = b"\x00" * 32
SERVER_RANDOM = b"\x01" * 32


class TlsDecodeError(ValueError):
    """Raised on malformed TLS records."""


def _record(content_type: int, payload: bytes) -> bytes:
    return struct.pack("!BHH", content_type, VERSION, len(payload)) + payload


def _parse_record(data: bytes) -> tuple[int, bytes, bytes]:
    """Return (content_type, payload, remainder)."""
    if len(data) < 5:
        raise TlsDecodeError("record too short for header")
    content_type, version, length = struct.unpack("!BHH", data[:5])
    if version >> 8 != 0x03:
        raise TlsDecodeError(f"not a TLS record (version {version:#06x})")
    payload = data[5:5 + length]
    if len(payload) != length:
        raise TlsDecodeError("truncated record payload")
    return content_type, payload, data[5 + length:]


def client_hello(hostname: Optional[str] = None) -> bytes:
    """Encode a ClientHello record, optionally carrying SNI."""
    sni = (hostname or "").encode("idna" if hostname else "ascii")
    body = CLIENT_RANDOM + struct.pack("!H", len(sni)) + sni
    message = struct.pack("!B", HS_CLIENT_HELLO)
    message += len(body).to_bytes(3, "big") + body
    return _record(RECORD_HANDSHAKE, message)


def parse_client_hello(data: bytes) -> Optional[str]:
    """Extract the SNI hostname from a ClientHello record (None if absent).

    Raises :class:`TlsDecodeError` when the bytes are not a ClientHello.
    """
    content_type, payload, _ = _parse_record(data)
    if content_type != RECORD_HANDSHAKE or not payload:
        raise TlsDecodeError("not a handshake record")
    if payload[0] != HS_CLIENT_HELLO:
        raise TlsDecodeError(f"unexpected handshake type {payload[0]}")
    length = int.from_bytes(payload[1:4], "big")
    body = payload[4:4 + length]
    if len(body) != length or length < 34:
        raise TlsDecodeError("truncated ClientHello")
    (sni_length,) = struct.unpack_from("!H", body, 32)
    sni = body[34:34 + sni_length]
    if len(sni) != sni_length:
        raise TlsDecodeError("truncated SNI")
    try:
        return sni.decode("ascii") if sni else None
    except UnicodeDecodeError as exc:
        raise TlsDecodeError("SNI is not an ASCII hostname") from exc


def server_hello(certificate: Certificate) -> bytes:
    """Encode ServerHello + Certificate as one flight of records."""
    hello_body = SERVER_RANDOM
    hello = struct.pack("!B", HS_SERVER_HELLO)
    hello += len(hello_body).to_bytes(3, "big") + hello_body
    cert_blob = certificate.encode()
    cert = struct.pack("!B", HS_CERTIFICATE)
    cert += len(cert_blob).to_bytes(3, "big") + cert_blob
    return _record(RECORD_HANDSHAKE, hello) + _record(RECORD_HANDSHAKE, cert)


def alert(description: int) -> bytes:
    """Encode a fatal alert record."""
    return _record(RECORD_ALERT, bytes((2, description)))


class HandshakeStatus(enum.Enum):
    """Client-side outcome categories the scanner records."""

    OK = "ok"
    ALERT = "alert"
    NOT_TLS = "not-tls"
    NO_RESPONSE = "no-response"


@dataclass(frozen=True)
class HandshakeResult:
    """What one TLS probe learned."""

    status: HandshakeStatus
    certificate: Optional[Certificate] = None
    alert_description: Optional[int] = None


def perform_handshake(stream: Stream,
                      hostname: Optional[str] = None) -> HandshakeResult:
    """Run the client side of the mini-TLS handshake over a stream."""
    response = stream.write(client_hello(hostname))
    if response is None:
        return HandshakeResult(status=HandshakeStatus.NO_RESPONSE)
    try:
        content_type, payload, remainder = _parse_record(response)
    except TlsDecodeError:
        return HandshakeResult(status=HandshakeStatus.NOT_TLS)
    if content_type == RECORD_ALERT:
        description = payload[1] if len(payload) >= 2 else None
        return HandshakeResult(
            status=HandshakeStatus.ALERT, alert_description=description
        )
    if content_type != RECORD_HANDSHAKE:
        return HandshakeResult(status=HandshakeStatus.NOT_TLS)
    # Expect the certificate in the follow-up record of the same flight.
    try:
        cert_type, cert_payload, _ = _parse_record(remainder)
    except TlsDecodeError:
        return HandshakeResult(status=HandshakeStatus.NOT_TLS)
    if cert_type != RECORD_HANDSHAKE or not cert_payload or \
            cert_payload[0] != HS_CERTIFICATE:
        return HandshakeResult(status=HandshakeStatus.NOT_TLS)
    length = int.from_bytes(cert_payload[1:4], "big")
    blob = cert_payload[4:4 + length]
    try:
        certificate = Certificate.decode(blob)
    except CertificateDecodeError:
        return HandshakeResult(status=HandshakeStatus.NOT_TLS)
    return HandshakeResult(status=HandshakeStatus.OK, certificate=certificate)


class TlsTerminator:
    """Server-side handshake policy: which cert to serve to which SNI.

    Device models embed one of these in front of their TLS-enabled
    services.  With ``require_sni`` set (CDN fronts), a ClientHello
    without a hostname gets a fatal ``unrecognized_name`` alert.
    """

    def __init__(self, certificate: Optional[Certificate] = None, *,
                 require_sni: bool = False,
                 sni_certificates: Optional[Dict[str, Certificate]] = None) -> None:
        if certificate is None and not sni_certificates:
            raise ValueError("terminator needs a default or SNI certificate")
        self.certificate = certificate
        self.require_sni = require_sni
        self.sni_certificates = dict(sni_certificates or {})

    def respond(self, data: bytes) -> bytes:
        """Consume a ClientHello, produce the server flight or an alert."""
        try:
            hostname = parse_client_hello(data)
        except TlsDecodeError:
            return alert(ALERT_HANDSHAKE_FAILURE)
        if hostname and hostname in self.sni_certificates:
            return server_hello(self.sni_certificates[hostname])
        if self.require_sni and not hostname:
            return alert(ALERT_UNRECOGNIZED_NAME)
        if self.certificate is None:
            return alert(ALERT_UNRECOGNIZED_NAME)
        return server_hello(self.certificate)
