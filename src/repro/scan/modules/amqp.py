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
from repro.scan.modules.tls import tls_handshake
from repro.scan.result import PROTOCOL_PORTS, BrokerGrab, TlsObservation


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


def scan_amqp(network: Network, source: int, target: int) -> BrokerGrab:
    """Plain AMQP broker probe."""
    port = PROTOCOL_PORTS["amqp"]
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_amqp(target, now, port)
    return _probe(stream, target, now, port, "amqp", tls=None)


def scan_amqps(network: Network, source: int, target: int) -> BrokerGrab:
    """AMQP-over-TLS broker probe."""
    port = PROTOCOL_PORTS["amqps"]
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_amqps(target, now, port)
    tls, spoke_tls = tls_handshake(stream, now)
    if not tls.ok:
        return BrokerGrab(address=target, time=now, port=port,
                          protocol="amqps", ok=spoke_tls, tls=tls)
    return _probe(stream, target, now, port, "amqps", tls=tls)
