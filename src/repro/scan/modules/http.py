"""HTTP and HTTPS scan modules.

The plain-HTTP probe sends ``GET /`` *without a Host header* and the
HTTPS probe runs the TLS handshake *without SNI* — faithfully modelling
the paper's setup, whose missing hostname is exactly what makes
hundreds of millions of CDN fronts fail the TLS handshake (Section 4.2).
"""

from __future__ import annotations

from typing import Optional

from repro.net.simnet import Network
from repro.proto.http import HttpDecodeError, HttpRequest, HttpResponse
from repro.scan.result import HttpGrab, TlsObservation
from repro.tlslib.handshake import HandshakeStatus, perform_handshake

#: User-Agent identifying the research scan (Appendix A.2.2).
USER_AGENT = "repro-scan/1.0 (+https://research.sim/scan-info)"


def refused_http(address: int, time: float, port: int) -> HttpGrab:
    """The grab of an HTTP(S) probe whose connection was refused (the
    port's number tells HTTP from HTTPS)."""
    return HttpGrab(address=address, time=time, port=port, ok=False)


def _fetch(stream, now: float, address: int, port: int,
           tls: Optional[TlsObservation]) -> HttpGrab:
    request = HttpRequest(method="GET", path="/",
                          headers={"User-Agent": USER_AGENT})
    raw = stream.write(request.encode())
    if raw is None:
        return HttpGrab(address=address, time=now, port=port, ok=False, tls=tls)
    try:
        response = HttpResponse.decode(raw)
    except HttpDecodeError:
        return HttpGrab(address=address, time=now, port=port, ok=False, tls=tls)
    return HttpGrab(
        address=address, time=now, port=port, ok=True,
        status=response.status, title=response.title,
        server=response.headers.get("Server"),
        tls=tls,
    )


def scan_http(network: Network, source: int, target: int,
              port: int = 80) -> HttpGrab:
    """Plain-HTTP banner/page grab."""
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_http(target, now, port)
    return _fetch(stream, now, target, port, tls=None)


def scan_https(network: Network, source: int, target: int,
               port: int = 443) -> HttpGrab:
    """TLS handshake (no SNI) followed by a page grab on success."""
    now = network.clock.now()
    stream = network.tcp_connect(source, target, port)
    if stream is None:
        return refused_http(target, now, port)
    handshake = perform_handshake(stream, hostname=None)
    if handshake.status is not HandshakeStatus.OK:
        tls = TlsObservation(
            ok=False,
            alert=(handshake.alert_description
                   if handshake.status is HandshakeStatus.ALERT else None),
        )
        # The endpoint *spoke TLS* (alert) but no application data flows.
        return HttpGrab(address=target, time=now, port=port,
                        ok=handshake.status is HandshakeStatus.ALERT, tls=tls)
    certificate = handshake.certificate
    tls = TlsObservation(
        ok=True,
        fingerprint=certificate.fingerprint,
        subject=certificate.subject,
        issuer=certificate.issuer,
        self_signed=certificate.self_signed,
        expired=certificate.expired(now),
    )
    return _fetch(stream, now, target, port, tls=tls)
