"""AMQP(S) scan module: protocol header, anonymous Start-Ok, classify."""

from __future__ import annotations

from typing import Optional

from repro.net.simnet import Network, Stream
from repro.proto.amqp import (
    PROTOCOL_HEADER,
    AmqpDecodeError,
    ConnectionClose,
    ConnectionStart,
    ConnectionStartOk,
    ConnectionTune,
    parse_method,
)
from repro.scan.result import BrokerGrab, TlsObservation
from repro.tlslib.handshake import HandshakeStatus, perform_handshake


def refused_amqp(address: int, time: float, port: int) -> BrokerGrab:
    """The grab of an AMQP probe whose connection was refused."""
    return BrokerGrab(address=address, time=time, port=port,
                      protocol="amqp", ok=False)


def refused_amqps(address: int, time: float, port: int) -> BrokerGrab:
    """The grab of an AMQPS probe whose connection was refused."""
    return BrokerGrab(address=address, time=time, port=port,
                      protocol="amqps", ok=False)


def _probe(stream: Stream, address: int, now: float, port: int,
           protocol: str, tls: Optional[TlsObservation]) -> BrokerGrab:
    raw = stream.write(PROTOCOL_HEADER)
    if raw is None:
        return BrokerGrab(address=address, time=now, port=port,
                          protocol=protocol, ok=False, tls=tls)
    if raw == PROTOCOL_HEADER:
        # Version-mismatch style rejection; the endpoint *is* AMQP.
        return BrokerGrab(address=address, time=now, port=port,
                          protocol=protocol, ok=True, open_access=None,
                          detail="header-rejected", tls=tls)
    try:
        start = parse_method(raw)
    except AmqpDecodeError:
        return BrokerGrab(address=address, time=now, port=port,
                          protocol=protocol, ok=False, tls=tls)
    if not isinstance(start, ConnectionStart):
        return BrokerGrab(address=address, time=now, port=port,
                          protocol=protocol, ok=False, tls=tls)
    # Attempt anonymous authentication.
    reply = stream.write(ConnectionStartOk(mechanism="ANONYMOUS").encode())
    open_access: Optional[bool] = None
    detail = f"mechanisms={','.join(start.mechanisms)}"
    if reply is not None:
        try:
            method = parse_method(reply)
        except AmqpDecodeError:
            method = None
        if isinstance(method, ConnectionTune):
            open_access = True
        elif isinstance(method, ConnectionClose):
            open_access = False
            detail += f";close={method.reply_code}"
    return BrokerGrab(
        address=address, time=now, port=port, protocol=protocol, ok=True,
        open_access=open_access, detail=detail, tls=tls,
    )


def scan_amqp(network: Network, source: int, target: int,
              port: int = 5672) -> BrokerGrab:
    """Plain AMQP broker probe."""
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_amqp(target, now, port)
    return _probe(stream, target, now, port, "amqp", tls=None)


def scan_amqps(network: Network, source: int, target: int,
               port: int = 5671) -> BrokerGrab:
    """AMQP-over-TLS broker probe."""
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_amqps(target, now, port)
    handshake = perform_handshake(stream, hostname=None)
    if handshake.status is not HandshakeStatus.OK:
        tls = TlsObservation(
            ok=False,
            alert=(handshake.alert_description
                   if handshake.status is HandshakeStatus.ALERT else None),
        )
        return BrokerGrab(address=target, time=now, port=port,
                          protocol="amqps",
                          ok=handshake.status is HandshakeStatus.ALERT,
                          tls=tls)
    certificate = handshake.certificate
    tls = TlsObservation(
        ok=True,
        fingerprint=certificate.fingerprint,
        subject=certificate.subject,
        issuer=certificate.issuer,
        self_signed=certificate.self_signed,
        expired=certificate.expired(now),
    )
    return _probe(stream, target, now, port, "amqps", tls=tls)
