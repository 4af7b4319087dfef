"""The TLS step the HTTPS, MQTTS and AMQPS probes share.

Like the paper's zgrab2 modules, every TLS probe runs the handshake
*without SNI* (Section 4.2), so a front that needs a hostname answers
with an alert instead of a certificate.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.simnet import Stream
from repro.scan.result import TlsObservation
from repro.tlslib.handshake import HandshakeStatus, perform_handshake


def tls_handshake(stream: Stream, now: float) -> Tuple[TlsObservation, bool]:
    """Run the handshake over ``stream``: what it revealed, and whether
    the endpoint spoke TLS.

    A completed handshake gives an ``ok`` observation of the served
    certificate, with ``expired`` judged at ``now`` (the grab's time).
    An alert means the endpoint spoke TLS although no application data
    can follow; its description is None when the alert record is too
    short to name one, so the alert field alone cannot tell.  A reply
    that is not TLS, or none, spoke no TLS.
    """
    handshake = perform_handshake(stream, hostname=None)
    if handshake.status is HandshakeStatus.OK:
        certificate = handshake.certificate
        return TlsObservation(
            ok=True,
            fingerprint=certificate.fingerprint,
            subject=certificate.subject,
            issuer=certificate.issuer,
            self_signed=certificate.self_signed,
            expired=certificate.expired(now),
        ), True
    if handshake.status is HandshakeStatus.ALERT:
        return TlsObservation(ok=False,
                              alert=handshake.alert_description), True
    return TlsObservation(ok=False), False
