"""The TLS probes (HTTPS, MQTTS, AMQPS) record a handshake the same way.

Each probe sends a ClientHello without SNI.  A completed handshake fills
the grab's TLS observation from the served certificate, with ``expired``
judged at the grab's time.  An alert marks an endpoint that spoke TLS:
the grab is ``ok``, and carries the alert's description when the record
is long enough to name one.  A reply that is not TLS, or no reply, leaves
a failed grab.
"""

import struct

import pytest

from repro.ipv6 import parse
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.scan.modules import scan_amqps, scan_https, scan_mqtts
from repro.scan.result import BrokerGrab, HttpGrab, TlsObservation
from repro.tlslib.certificate import PUBLIC_CA, Certificate
from repro.tlslib.handshake import (
    ALERT_UNRECOGNIZED_NAME,
    RECORD_ALERT,
    RECORD_HANDSHAKE,
    VERSION,
    alert,
    server_hello,
)
from repro.tlslib.keys import derive_key
from tests.net_reference import SimpleSession

SRC = parse("2001:db8:5c::1")
TARGET = parse("2001:db8:607::1")
NOW = 5_000.0

PROBES = [
    pytest.param(scan_https, 443, "https", id="https"),
    pytest.param(scan_mqtts, 8883, "mqtts", id="mqtts"),
    pytest.param(scan_amqps, 5671, "amqps", id="amqps"),
]

#: Expired one second before the grab's time, and self-signed.
EXPIRED_SELF_SIGNED = Certificate(
    subject="device.sim", issuer="device.sim", not_before=0.0,
    not_after=NOW - 1, key=derive_key("tls-probe-expired"))
#: Valid until one second after the grab's time, from the public CA.
VALID_PUBLIC = Certificate(
    subject="broker.sim", issuer=PUBLIC_CA, not_before=0.0,
    not_after=NOW + 1, key=derive_key("tls-probe-valid"))

#: An alert record whose one-byte payload holds a level but no
#: description.
SHORT_ALERT = struct.pack("!BHH", RECORD_ALERT, VERSION, 1) + b"\x02"


class _Service:
    def __init__(self, respond):
        self.respond = respond

    def accept(self, peer, peer_port):
        return SimpleSession(respond=self.respond)


def _probe(scan, port, respond):
    """Run ``scan`` against a host whose ``port`` answers every write
    with ``respond(data)``."""
    network = Network(VirtualClock(start=NOW))
    host = network.add_host(TARGET)
    host.bind_tcp(port, _Service(respond))
    return scan(network, SRC, TARGET)


def _expected(port, protocol, *, ok, tls):
    if protocol == "https":
        return HttpGrab(address=TARGET, time=NOW, port=port, ok=ok, tls=tls)
    return BrokerGrab(address=TARGET, time=NOW, port=port,
                      protocol=protocol, ok=ok, tls=tls)


@pytest.mark.parametrize("scan,port,protocol", PROBES)
class TestTlsProbes:
    @pytest.mark.parametrize("certificate", [EXPIRED_SELF_SIGNED,
                                             VALID_PUBLIC],
                             ids=["expired-self-signed", "valid-public"])
    def test_completed_handshake(self, scan, port, protocol, certificate):
        """The certificate's fields reach the observation; the silent
        application layer behind it fails the grab."""
        def respond(data):
            return server_hello(certificate) \
                if data[0] == RECORD_HANDSHAKE else None

        grab = _probe(scan, port, respond)
        assert grab == _expected(port, protocol, ok=False, tls=TlsObservation(
            ok=True, fingerprint=certificate.fingerprint,
            subject=certificate.subject, issuer=certificate.issuer,
            self_signed=certificate.self_signed,
            expired=certificate.expired(NOW)))
        assert grab.protocol == protocol

    def test_alert_with_description(self, scan, port, protocol):
        grab = _probe(scan, port,
                      lambda data: alert(ALERT_UNRECOGNIZED_NAME))
        assert grab == _expected(port, protocol, ok=True, tls=TlsObservation(
            ok=False, alert=ALERT_UNRECOGNIZED_NAME))

    def test_alert_too_short_to_name_one(self, scan, port, protocol):
        grab = _probe(scan, port, lambda data: SHORT_ALERT)
        assert grab == _expected(port, protocol, ok=True,
                                 tls=TlsObservation(ok=False, alert=None))

    @pytest.mark.parametrize("reply", [b"HTTP/1.1 400 Bad Request\r\n\r\n",
                                       None],
                             ids=["not-tls", "no-reply"])
    def test_no_tls(self, scan, port, protocol, reply):
        grab = _probe(scan, port, lambda data: reply)
        assert grab == _expected(port, protocol, ok=False,
                                 tls=TlsObservation(ok=False))
