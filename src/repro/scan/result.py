"""Scan result records — the zgrab2-style "grab" objects.

Each protocol module returns a typed grab; :class:`ScanResults`
accumulates the answered (``ok``) ones per protocol and offers the
aggregate accessors the analyses and tables consume (responsive
addresses, TLS success shares, unique certificate/key fingerprints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Protocol labels in Table 2 / Table 5 column order.
PROTOCOLS = ("http", "https", "ssh", "mqtt", "mqtts", "amqp", "amqps", "coap")

#: protocol label → (transport port, uses TLS).
PROTOCOL_PORTS: Dict[str, int] = {
    "http": 80, "https": 443, "ssh": 22, "mqtt": 1883, "mqtts": 8883,
    "amqp": 5672, "amqps": 5671, "coap": 5683,
}

TLS_PROTOCOLS = frozenset({"https", "mqtts", "amqps"})


@dataclass(frozen=True)
class TlsObservation:
    """What a TLS handshake revealed (None fields when it failed)."""

    ok: bool
    alert: Optional[int] = None
    fingerprint: Optional[bytes] = None
    subject: Optional[str] = None
    issuer: Optional[str] = None
    self_signed: Optional[bool] = None
    expired: Optional[bool] = None


@dataclass(frozen=True)
class HttpGrab:
    """HTTP(S) probe outcome."""

    address: int
    time: float
    port: int
    ok: bool
    status: Optional[int] = None
    title: Optional[str] = None
    server: Optional[str] = None
    tls: Optional[TlsObservation] = None

    @property
    def protocol(self) -> str:
        return "https" if self.port == 443 else "http"


@dataclass(frozen=True)
class SshGrab:
    """SSH probe outcome."""

    address: int
    time: float
    ok: bool
    banner: Optional[str] = None
    software: Optional[str] = None
    comment: Optional[str] = None
    key_algorithm: Optional[str] = None
    key_fingerprint: Optional[bytes] = None

    protocol: str = "ssh"


@dataclass(frozen=True)
class BrokerGrab:
    """MQTT/AMQP probe outcome."""

    address: int
    time: float
    port: int
    protocol: str
    ok: bool
    #: True → anonymous access accepted, False → refused, None → unknown.
    open_access: Optional[bool] = None
    detail: Optional[str] = None
    tls: Optional[TlsObservation] = None


@dataclass(frozen=True)
class CoapGrab:
    """CoAP probe outcome."""

    address: int
    time: float
    ok: bool
    resources: Tuple[str, ...] = ()

    protocol: str = "coap"
    port: int = 5683


@dataclass(frozen=True)
class NtpGrab:
    """NTP control-plane probe outcome (mode-6 readvar + mode-7 monlist).

    ``ok`` means the target answered the readvar query at all;
    ``monlist`` is True when the mode-7 monlist was answered with data,
    False when it was denied or silently dropped (the patched-daemon
    behaviour).  The byte counters feed the amplification-factor
    analysis: ``request_bytes`` is what the scanner sent for the
    monlist probe, ``response_bytes`` what came back across the whole
    response train.
    """

    address: int
    time: float
    ok: bool
    version: Optional[str] = None
    monlist: bool = False
    #: Recent-client entries returned by monlist.
    entries: int = 0
    #: Packets in the monlist response train.
    response_packets: int = 0
    #: Bytes sent in the monlist request.
    request_bytes: int = 0
    #: Bytes received across the monlist response train.
    response_bytes: int = 0

    protocol: str = "ntp"
    port: int = 123

    @property
    def amplification(self) -> float:
        """Bytes returned per monlist byte sent (0.0 when unanswered)."""
        if self.request_bytes <= 0:
            return 0.0
        return self.response_bytes / self.request_bytes


Grab = object  # any of the grab dataclasses above


@dataclass
class ScanResults:
    """Accumulated grabs of one scan campaign.

    A result set holds answered (``ok``) grabs only, whether the scan
    engine filled it (a refused probe leaves its counters and its store
    record, not a grab) or a reader rebuilt it from a run store or a
    results file (refused grab records are skipped), so live, replayed
    and reloaded result sets agree grab for grab.  ``targets_seen``
    still counts every fed target.

    The eight paper protocols are first-class fields; grabs from
    additionally registered probe modules (see
    :class:`repro.runtime.registry.ProbeRegistry`) accumulate in
    ``extra`` under their ``protocol`` label, from their first answered
    grab on, and flow through every aggregate exactly like the
    built-in ones.
    """

    label: str = ""
    http: List[HttpGrab] = field(default_factory=list)
    https: List[HttpGrab] = field(default_factory=list)
    ssh: List[SshGrab] = field(default_factory=list)
    mqtt: List[BrokerGrab] = field(default_factory=list)
    mqtts: List[BrokerGrab] = field(default_factory=list)
    amqp: List[BrokerGrab] = field(default_factory=list)
    amqps: List[BrokerGrab] = field(default_factory=list)
    coap: List[CoapGrab] = field(default_factory=list)
    #: Grabs of registered non-paper protocols, keyed by label.
    extra: Dict[str, List[Grab]] = field(default_factory=dict)
    #: Addresses fed to the scanner (denominator of hit rates).
    targets_seen: int = 0

    def protocols(self) -> Tuple[str, ...]:
        """Every protocol with a bucket here (paper order, extras last)."""
        return PROTOCOLS + tuple(self.extra)

    def grabs(self, protocol: str) -> List[Grab]:
        if protocol in PROTOCOLS:
            return getattr(self, protocol)
        try:
            return self.extra[protocol]
        except KeyError:
            raise KeyError(f"unknown protocol {protocol!r}") from None

    def bucket(self, protocol: str) -> List[Grab]:
        """Like :meth:`grabs`, but creates the bucket for new protocols."""
        if protocol in PROTOCOLS:
            return getattr(self, protocol)
        return self.extra.setdefault(protocol, [])

    def add(self, grab: Grab) -> None:
        protocol = getattr(grab, "protocol", None)
        if not isinstance(protocol, str):
            raise TypeError(f"not a grab: {grab!r}")
        self.bucket(protocol).append(grab)

    # -- aggregates (Table 2 columns) -----------------------------------

    def responsive(self, protocol: str) -> List[Grab]:
        """Successful grabs for one protocol."""
        return [grab for grab in self.grabs(protocol) if grab.ok]

    def responsive_addresses(self, protocol: str) -> set:
        """Distinct responsive addresses (Table 2 #Addrs)."""
        return {grab.address for grab in self.responsive(protocol)}

    def tls_addresses(self, protocol: str) -> set:
        """Distinct addresses with a *successful* TLS handshake."""
        return {
            grab.address for grab in self.responsive(protocol)
            if getattr(grab, "tls", None) is not None and grab.tls.ok
        }

    def unique_fingerprints(self, protocol: str) -> set:
        """Distinct certificate or host-key fingerprints (#Certs/Keys)."""
        fingerprints = set()
        for grab in self.responsive(protocol):
            if isinstance(grab, SshGrab):
                if grab.key_fingerprint:
                    fingerprints.add(grab.key_fingerprint)
            else:
                tls = getattr(grab, "tls", None)
                if tls is not None and tls.ok and tls.fingerprint:
                    fingerprints.add(tls.fingerprint)
        return fingerprints

    def merged_http(self) -> List[HttpGrab]:
        """HTTP+HTTPS grabs together (the paper reports one HTTP row)."""
        return self.http + self.https

    def hit_rate(self) -> float:
        """Share of fed targets responsive on at least one protocol."""
        if self.targets_seen == 0:
            return 0.0
        responsive: set = set()
        for protocol in self.protocols():
            responsive |= self.responsive_addresses(protocol)
        return len(responsive) / self.targets_seen
