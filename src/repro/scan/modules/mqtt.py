"""MQTT(S) scan module: anonymous CONNECT, access-control classification."""

from __future__ import annotations

from typing import Optional

from repro.net.simnet import Network, Stream
from repro.proto.mqtt import (
    ACCEPTED,
    ConnackPacket,
    ConnectPacket,
    MqttDecodeError,
)
from repro.scan.modules.tls import tls_handshake
from repro.scan.result import PROTOCOL_PORTS, BrokerGrab, TlsObservation

#: Client ID identifying the research scan.
CLIENT_ID = "repro-scan"


def refused_mqtt(address: int, time: float, port: int) -> BrokerGrab:
    """The grab of an MQTT probe whose connection was refused."""
    return BrokerGrab(address=address, time=time, port=port,
                      protocol="mqtt", ok=False)


def refused_mqtts(address: int, time: float, port: int) -> BrokerGrab:
    """The grab of an MQTTS probe whose connection was refused."""
    return BrokerGrab(address=address, time=time, port=port,
                      protocol="mqtts", ok=False)


def _probe(stream: Stream, address: int, now: float, port: int,
           protocol: str, tls: Optional[TlsObservation]) -> BrokerGrab:
    connect = ConnectPacket(client_id=CLIENT_ID)
    raw = stream.write(connect.encode())
    if raw is None:
        return BrokerGrab(address=address, time=now, port=port,
                          protocol=protocol, ok=False, tls=tls)
    try:
        connack = ConnackPacket.decode(raw)
    except MqttDecodeError:
        return BrokerGrab(address=address, time=now, port=port,
                          protocol=protocol, ok=False, tls=tls)
    return BrokerGrab(
        address=address, time=now, port=port, protocol=protocol, ok=True,
        open_access=connack.return_code == ACCEPTED,
        detail=f"connack={connack.return_code}",
        tls=tls,
    )


def scan_mqtt(network: Network, source: int, target: int) -> BrokerGrab:
    """Plain MQTT broker probe."""
    port = PROTOCOL_PORTS["mqtt"]
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_mqtt(target, now, port)
    return _probe(stream, target, now, port, "mqtt", tls=None)


def scan_mqtts(network: Network, source: int, target: int) -> BrokerGrab:
    """MQTT-over-TLS broker probe."""
    port = PROTOCOL_PORTS["mqtts"]
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_mqtts(target, now, port)
    tls, spoke_tls = tls_handshake(stream, now)
    if not tls.ok:
        return BrokerGrab(address=target, time=now, port=port,
                          protocol="mqtts", ok=spoke_tls, tls=tls)
    return _probe(stream, target, now, port, "mqtts", tls=tls)
