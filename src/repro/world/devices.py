"""Device models: what a simulated host *is* and how it answers probes.

A :class:`Device` bundles

* a **service surface** — which protocol services it binds (web UI,
  SSH, broker, CoAP resource directory) and with what configuration
  (page title, TLS certificate, SSH banner + host key, broker access
  control, advertised resources);
* an **addressing mode** — how its interface identifier is formed
  (EUI-64 with a vendor MAC, SLAAC privacy, structured server-style);
* **NTP behaviour** — whether and how often it synchronizes against the
  pool (only NTP speakers can ever be collected by the paper's method);
* **reachability** — whether inbound connections get through at all
  (end-user CPEs mostly drop unsolicited traffic, which is why the
  paper's NTP-sourced scans have a ~0.4 permille hit rate).

The catalogue of concrete device types the paper observes (FRITZ!Box,
D-LINK, Raspbian hosts, castdevice CoAP endpoints, CDN fronts, …) is
assembled in :mod:`repro.world.population`; this module provides the
building blocks and per-type constructors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.ipv6 import address as addrmod
from repro.ipv6 import eui64
from repro.net.simnet import Network
from repro.proto.amqp import AmqpSessionFactory
from repro.proto.coap import CoapResourceServer
from repro.proto.http import HttpSessionFactory
from repro.proto.mqtt import MqttSessionFactory
from repro.proto.ssh import SshIdentification, SshSessionFactory
from repro.proto.tls_session import PlainService, TlsService
from repro.tlslib.certificate import Certificate, issue_public, issue_self_signed
from repro.tlslib.handshake import TlsTerminator
from repro.tlslib.keys import KeyIdentity, derive_key

#: Well-known ports, matching the paper's scan targets (Table 2).
PORT_HTTP = 80
PORT_HTTPS = 443
PORT_SSH = 22
PORT_MQTT = 1883
PORT_MQTTS = 8883
PORT_AMQP = 5672
PORT_AMQPS = 5671
PORT_COAP = 5683

#: Addressing modes a device can use for its interface identifier.
ADDRESSING_MODES = ("eui64", "privacy", "structured", "low-byte", "zero")


@dataclass
class WebConfig:
    """Configuration of a device's HTTP(S) surface."""

    title: Optional[str]
    status: int = 200
    https: bool = False
    certificate: Optional[Certificate] = None
    sni_required: bool = False
    server_header: str = "sim-httpd/1.0"


@dataclass
class SshConfig:
    """Configuration of a device's SSH surface."""

    identification: SshIdentification
    host_key: KeyIdentity


@dataclass
class BrokerConfig:
    """Configuration of an MQTT or AMQP broker surface."""

    require_auth: bool
    tls: bool = False
    certificate: Optional[Certificate] = None


@dataclass
class CoapConfig:
    """Configuration of a device's CoAP surface."""

    resources: Tuple[str, ...]


@dataclass
class Device:
    """One simulated host with stable identity across address changes."""

    type_name: str
    addressing: str
    #: Vendor MAC for EUI-64 devices (None otherwise).
    mac: Optional[int] = None
    #: Mean seconds between NTP pool queries; None = not an NTP client.
    ntp_interval: Optional[float] = None
    #: Whether inbound connections reach the device's services.
    reachable: bool = True
    web: Optional[WebConfig] = None
    ssh: Optional[SshConfig] = None
    mqtt: Optional[BrokerConfig] = None
    amqp: Optional[BrokerConfig] = None
    coap: Optional[CoapConfig] = None
    #: Attributes the analyses treat as ground truth (for validation).
    labels: Dict[str, str] = field(default_factory=dict)

    # Populated by the world builder:
    country: str = ""
    asn: int = 0
    prefix64: int = 0
    address: int = 0

    @property
    def is_ntp_client(self) -> bool:
        return self.ntp_interval is not None

    @property
    def has_services(self) -> bool:
        return any((self.web, self.ssh, self.mqtt, self.amqp, self.coap))

    # -- addressing ----------------------------------------------------

    def make_iid(self, rng: random.Random) -> int:
        """Draw an interface identifier according to the addressing mode."""
        if self.addressing == "eui64":
            if self.mac is None:
                raise ValueError(f"{self.type_name}: eui64 addressing needs a MAC")
            return eui64.mac_to_iid(self.mac)
        if self.addressing == "privacy":
            return _privacy_iid(rng)
        if self.addressing == "structured":
            return rng.randrange(0x100, 0x10000)
        if self.addressing == "low-byte":
            # Manual addressing follows conventions: ::1, ::2, ... are
            # far more common than arbitrary low bytes (this is what
            # makes structured server space TGA-extrapolatable).
            if rng.random() < 0.5:
                return rng.randrange(1, 9)
            return rng.randrange(1, 0x100)
        if self.addressing == "zero":
            return 0
        raise ValueError(f"unknown addressing mode {self.addressing!r}")

    def assign_address(self, prefix64: int, rng: random.Random) -> int:
        """(Re-)derive the device's address inside a /64."""
        self.prefix64 = addrmod.prefix(prefix64, 64)
        self.address = addrmod.with_iid(self.prefix64, self.make_iid(rng))
        return self.address

    # -- materialization -------------------------------------------------

    def materialize(self, network: Network) -> None:
        """Bind the device's services at its current address."""
        host = network.add_host(self.address, reachable=self.reachable)
        self.bind_services(host)

    def bind_services(self, host) -> None:
        """Bind this device's service surface onto an arbitrary host
        (also used to put a CDN personality onto aliased /64s).

        Services are bound as *factory objects* (not closures) that
        capture only their configuration.
        """
        if self.web is not None:
            web = self.web
            host.bind_tcp(PORT_HTTP, PlainService(HttpSessionFactory(
                web.title, status=web.status, server=web.server_header,
                requires_host=web.sni_required,
            )))
            if web.https:
                if web.certificate is None:
                    raise ValueError(f"{self.type_name}: https without certificate")
                terminator = TlsTerminator(
                    web.certificate if not web.sni_required else None,
                    require_sni=web.sni_required,
                    sni_certificates=(
                        {web.certificate.subject: web.certificate}
                        if web.sni_required else None
                    ),
                )
                host.bind_tcp(PORT_HTTPS, TlsService(
                    terminator,
                    HttpSessionFactory(web.title, status=web.status,
                                       server=web.server_header),
                ))
        if self.ssh is not None:
            ssh = self.ssh
            host.bind_tcp(PORT_SSH, PlainService(
                SshSessionFactory(ssh.identification, ssh.host_key)))
        if self.mqtt is not None:
            mqtt = self.mqtt
            host.bind_tcp(PORT_MQTT, PlainService(
                MqttSessionFactory(require_auth=mqtt.require_auth)))
            if mqtt.tls:
                if mqtt.certificate is None:
                    raise ValueError(f"{self.type_name}: mqtts without certificate")
                host.bind_tcp(PORT_MQTTS, TlsService(
                    TlsTerminator(mqtt.certificate),
                    MqttSessionFactory(require_auth=mqtt.require_auth),
                ))
        if self.amqp is not None:
            amqp = self.amqp
            host.bind_tcp(PORT_AMQP, PlainService(
                AmqpSessionFactory(require_auth=amqp.require_auth)))
            if amqp.tls:
                if amqp.certificate is None:
                    raise ValueError(f"{self.type_name}: amqps without certificate")
                host.bind_tcp(PORT_AMQPS, TlsService(
                    TlsTerminator(amqp.certificate),
                    AmqpSessionFactory(require_auth=amqp.require_auth),
                ))
        if self.coap is not None:
            host.bind_udp(PORT_COAP, CoapResourceServer(self.coap.resources))

    def rehome(self, network: Network, new_prefix64: int,
               rng: random.Random) -> int:
        """Move the device to a new /64 (prefix churn), rebinding services."""
        old = self.address
        self.assign_address(new_prefix64, rng)
        return self._move_from(network, old)

    def rotate_iid(self, network: Network, rng: random.Random) -> int:
        """Privacy-extension rotation: new IID inside the same /64.

        The draw, host lookup and move ``rehome(network, self.prefix64,
        rng)`` makes, with the IID drawn directly rather than through
        :meth:`assign_address` and :meth:`make_iid`.
        """
        if self.addressing != "privacy":
            raise ValueError("only privacy-addressed devices rotate IIDs")
        old = self.address
        prefix64 = self.prefix64 = self.prefix64 & addrmod.PREFIX_MASK
        self.address = prefix64 | _privacy_iid(rng)
        return self._move_from(network, old)

    def _move_from(self, network: Network, old: int) -> int:
        """Move the device's host from ``old`` to its current address,
        or materialize it there when ``old`` has no host."""
        if network.host(old) is not None:
            network.move_host(old, self.address)
        else:
            self.materialize(network)
        return self.address


def _privacy_iid(rng: random.Random) -> int:
    """An RFC 8981 temporary IID: uniform random with the U/L bit
    clear; re-drawing models rotation."""
    iid = rng.getrandbits(64) & ~(1 << 57)
    return iid | (1 << 63)  # keep entropy high and non-zero


# ---------------------------------------------------------------------------
# Per-type constructors.  Each returns an unplaced Device; the world
# builder assigns AS/prefix/country and materializes it.
# ---------------------------------------------------------------------------

def _device_cert(subject: str, key_seed: str, *,
                 public: bool = False) -> Certificate:
    key = derive_key(key_seed, "rsa-2048")
    if public:
        return issue_public(subject, key)
    return issue_self_signed(subject, key)


def make_fritzbox(rng: random.Random, index: int, mac: int) -> Device:
    """An AVM FRITZ!Box home router.

    AVM routers default to NTP, use EUI-64 addresses from AVM OUIs, and
    — crucially for the paper — make it very easy to expose the web UI
    (``myfritz`` remote access), so they are reachable over HTTPS with a
    per-device self-signed certificate.
    """
    cert = _device_cert(f"fritz.box-{index}", f"fritz|{index}|{rng.getrandbits(32)}")
    return Device(
        type_name="fritzbox",
        addressing="eui64",
        mac=mac,
        ntp_interval=3600.0,
        reachable=True,
        web=WebConfig(title="FRITZ!Box", https=True, certificate=cert,
                      server_header="AVM FRITZ!Box"),
        labels={"vendor": "AVM", "segment": "consumer"},
    )


def make_fritz_repeater(rng: random.Random, index: int, mac: int) -> Device:
    """An AVM FRITZ!Repeater (Wi-Fi mesh extender)."""
    cert = _device_cert(f"fritz.repeater-{index}",
                        f"fritzrep|{index}|{rng.getrandbits(32)}")
    return Device(
        type_name="fritz_repeater",
        addressing="eui64",
        mac=mac,
        ntp_interval=3600.0,
        reachable=True,
        web=WebConfig(title="FRITZ!Repeater 6000", https=True,
                      certificate=cert, server_header="AVM FRITZ!Repeater"),
        labels={"vendor": "AVM", "segment": "consumer"},
    )


def make_fritz_powerline(rng: random.Random, index: int, mac: int) -> Device:
    """An AVM FRITZ!Powerline adapter."""
    cert = _device_cert(f"fritz.powerline-{index}",
                        f"fritzpl|{index}|{rng.getrandbits(32)}")
    return Device(
        type_name="fritz_powerline",
        addressing="eui64",
        mac=mac,
        ntp_interval=3600.0,
        reachable=True,
        web=WebConfig(title="FRITZ!Powerline 1260", https=True,
                      certificate=cert, server_header="AVM FRITZ!Powerline"),
        labels={"vendor": "AVM", "segment": "consumer"},
    )


def make_dlink_router(rng: random.Random, index: int, mac: int) -> Device:
    """A D-LINK CPE: web UI with a device certificate, *no* pool NTP.

    D-LINK devices register DNS names (dynamic-DNS services), which is
    how hitlists find them — while their firmware synchronizes against
    a vendor-run NTP server, never the pool.  Hence the paper's stark
    asymmetry: tens of thousands via the hitlist, zero via NTP.
    """
    cert = _device_cert(f"dlinkrouter-{index}",
                        f"dlink|{index}|{rng.getrandbits(32)}")
    return Device(
        type_name="dlink",
        addressing="structured",
        mac=mac,
        ntp_interval=None,
        reachable=True,
        web=WebConfig(title="D-LINK", https=True, certificate=cert,
                      server_header="D-Link Web Server"),
        labels={"vendor": "D-LINK", "segment": "consumer", "dns": "yes"},
    )


def make_cisco_wap(rng: random.Random, index: int, mac: int) -> Device:
    """A Cisco WAP150 consumer/prosumer access point (NTP, no DNS)."""
    cert = _device_cert(f"wap150-{index}", f"wap|{index}|{rng.getrandbits(32)}")
    return Device(
        type_name="cisco_wap",
        addressing="eui64",
        mac=mac,
        ntp_interval=7200.0,
        reachable=True,
        web=WebConfig(
            title="WAP150 Wireless-AC/N Dual Radio Access Point with PoE",
            https=True, certificate=cert, server_header="cisco-AP",
        ),
        labels={"vendor": "Cisco", "segment": "consumer"},
    )


def make_client_device(rng: random.Random, index: int, mac: Optional[int],
                       vendor: str, addressing: str = "eui64") -> Device:
    """A pure NTP *client*: phone, TV, speaker, echo — never scannable.

    These dominate the collected address set (and the EUI-64 vendor
    table) but answer nothing, producing the paper's very low hit rate.
    """
    return Device(
        type_name="client",
        addressing=addressing,
        mac=mac,
        ntp_interval=rng.choice([64.0, 256.0, 1024.0]) * 4,
        reachable=False,
        labels={"vendor": vendor, "segment": "consumer"},
    )


def make_generic_cpe(rng: random.Random, index: int,
                     mac: Optional[int]) -> Device:
    """A locked-down ISP-issued router: NTP client, all inbound dropped."""
    return Device(
        type_name="generic_cpe",
        addressing="eui64" if mac is not None else "privacy",
        mac=mac,
        ntp_interval=3600.0,
        reachable=False,
        labels={"vendor": "generic", "segment": "consumer"},
    )


def make_web_server(rng: random.Random, index: int, *, title: Optional[str],
                    https: bool, public_cert: bool, hostname: str,
                    ntp: bool, type_name: str = "web_server",
                    sni_required: bool = False,
                    segment: str = "server") -> Device:
    """A datacenter web server / hosting page / CDN front."""
    cert = None
    if https:
        cert = _device_cert(hostname, f"web|{hostname}|{index}",
                            public=public_cert)
    return Device(
        type_name=type_name,
        addressing=rng.choice(["low-byte", "structured", "structured"]),
        ntp_interval=86_400.0 if ntp else None,
        reachable=True,
        web=WebConfig(title=title, https=https, certificate=cert,
                      sni_required=sni_required),
        labels={"segment": segment, "dns": "yes"},
    )


def make_ssh_host(rng: random.Random, index: int, *, os_name: str,
                  software: str, comment: Optional[str],
                  host_key: KeyIdentity, ntp: bool,
                  segment: str = "server",
                  addressing: Optional[str] = None,
                  mac: Optional[int] = None,
                  outdated: bool = False) -> Device:
    """A host exposing SSH (server, VM, or a hobbyist Raspberry Pi)."""
    return Device(
        type_name=f"ssh_{os_name.lower()}",
        addressing=addressing or rng.choice(["low-byte", "structured"]),
        mac=mac,
        ntp_interval=3600.0 if ntp else None,
        reachable=True,
        ssh=SshConfig(
            identification=SshIdentification("2.0", software, comment),
            host_key=host_key,
        ),
        labels={"os": os_name, "segment": segment,
                "outdated": "yes" if outdated else "no"},
    )


def make_mqtt_broker(rng: random.Random, index: int, *, require_auth: bool,
                     tls: bool, ntp: bool, segment: str) -> Device:
    """An MQTT broker, optionally TLS-enabled and access-controlled."""
    cert = None
    if tls:
        cert = _device_cert(f"mqtt-{index}.sim", f"mqtt|{index}",
                            public=segment == "server")
    return Device(
        type_name="mqtt_broker",
        addressing="structured",
        ntp_interval=3600.0 if ntp else None,
        reachable=True,
        mqtt=BrokerConfig(require_auth=require_auth, tls=tls, certificate=cert),
        labels={"segment": segment,
                "auth": "yes" if require_auth else "no"},
    )


def make_amqp_broker(rng: random.Random, index: int, *, require_auth: bool,
                     tls: bool, ntp: bool, segment: str) -> Device:
    """An AMQP broker (RabbitMQ-style)."""
    cert = None
    if tls:
        cert = _device_cert(f"amqp-{index}.sim", f"amqp|{index}",
                            public=True)
    return Device(
        type_name="amqp_broker",
        addressing="structured",
        ntp_interval=3600.0 if ntp else None,
        reachable=True,
        amqp=BrokerConfig(require_auth=require_auth, tls=tls, certificate=cert),
        labels={"segment": segment,
                "auth": "yes" if require_auth else "no"},
    )


def make_coap_device(rng: random.Random, index: int, *,
                     resources: Sequence[str], group: str,
                     ntp: bool, mac: Optional[int] = None) -> Device:
    """A CoAP endpoint advertising a fixed resource directory."""
    return Device(
        type_name=f"coap_{group}",
        addressing="eui64" if mac is not None else "privacy",
        mac=mac,
        ntp_interval=1800.0 if ntp else None,
        reachable=True,
        coap=CoapConfig(resources=tuple(resources)),
        labels={"segment": "iot", "coap_group": group},
    )
