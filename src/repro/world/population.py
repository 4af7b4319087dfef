"""The synthetic Internet population.

:func:`build_world` assembles everything the experiments run against:

* **eyeball networks** — per-country ISP ASes holding customer
  premises.  Each premises gets a delegated /56 (often rotating daily),
  a router (FRITZ!Box / D-LINK / Cisco WAP / locked-down generic CPE),
  a handful of pure NTP client devices (phones, TVs, speakers — the
  bulk of collected addresses, never scannable), and occasional
  hobbyist/IoT extras (Raspberry Pis with SSH, CoAP media devices,
  unmanaged MQTT brokers, consumer portals);
* **datacenter networks** — hosting ASes with web servers (default
  pages, parking pages, 3CX systems, Plesk panels), professionally
  managed SSH hosts and brokers; research ASes with FreeBSD
  infrastructure; hyperscaler ASes fronting a CDN (SNI-required TLS);
* the **identity fabric** — vendor MACs from the OUI registry, SSH host
  keys drawn from reuse pools, per-device certificates.

Every draw comes from one seeded :class:`random.Random`, so a world is
a pure function of its :class:`WorldConfig`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ipv6.oui import LOCAL_OUI, UNLISTED_OUI, OuiRegistry, default_registry
from repro.net.clock import VirtualClock
from repro.net.dns import DnsZone
from repro.net.rdns import ReverseDns
from repro.net.simnet import Network
from repro.data import ssh_releases
from repro.tlslib.keys import KeyIdentity, KeyPool
from repro.world import devices as dev
from repro.world.asdb import AsDatabase, AutonomousSystem, build_asdb
from repro.world.churn import ChurnModel, Premises
from repro.world.geo import GeoDatabase, default_geo


@dataclass
class WorldConfig:
    """Seed and size of a generated world.

    ``scale`` multiplies every population count; tests run ``scale≈0.1``
    (hundreds of devices), benchmarks the default (tens of thousands).
    The counts and rates it scales are the module constants below,
    calibrated to the populations the paper measured.
    """

    seed: int = 20240720
    scale: float = 1.0

    def __post_init__(self) -> None:
        # House style: errors lead with field=value so CLI exit-2
        # output names the offending value.
        if not self.scale > 0:
            raise ValueError(f"scale={self.scale}: must be > 0")


#: Customer premises per unit of country client weight.
PREMISES_BASE = 24.0
#: CDN front addresses (hitlist-only HTTP responders).
CDN_FRONTS = 2600
#: Aliased /64s: CDN edge subnets answering on *every* address
#: (Gasser et al.'s "clusters in the expanse").
ALIASED_64S = 30
#: Generic web servers per hosting AS.
WEB_PER_HOSTING_AS = 60
#: SSH servers per hosting AS.
SSH_PER_HOSTING_AS = 55
#: Managed MQTT/AMQP brokers per hosting AS.
MQTT_PER_HOSTING_AS = 8
AMQP_PER_HOSTING_AS = 4
#: FreeBSD infrastructure hosts per research AS.
FREEBSD_PER_RESEARCH_AS = 8
#: Probability that an eyeball premises keeps a static prefix.
STATIC_PREFIX_RATE = 0.45
#: Daily rotation probability for dynamic premises.
ROTATION_RATE = 0.35
#: Probability that a consumer device has a (dynamic-)DNS name and is
#: therefore discoverable by hitlist-style sourcing.
CONSUMER_DNS_RATE = 0.02
#: Probability that a *professionally managed* Debian-derived SSH
#: host runs the latest patch level.
MANAGED_LATEST_RATE = 0.55
#: Same for end-user administered hosts (Pis, home servers).
UNMANAGED_LATEST_RATE = 0.15
#: Access-control rates for brokers (Figure 3's ground truth).
MANAGED_MQTT_AUTH_RATE = 0.82
UNMANAGED_MQTT_AUTH_RATE = 0.34
AMQP_AUTH_RATE = 0.93
#: SSH host-key reuse (container/system images shipping secrets).
SSH_REUSE_RATE = 0.35
SSH_POOL_SIZE = 12
UNMANAGED_SSH_REUSE_RATE = 0.55
UNMANAGED_SSH_POOL_SIZE = 4


#: Router-type weights per region bucket.
_ROUTER_MIX: Dict[str, Tuple[Tuple[str, float], ...]] = {
    "DE": (("fritzbox", 0.74), ("dlink", 0.04), ("cisco_wap", 0.01),
           ("generic", 0.21)),
    "EU": (("fritzbox", 0.42), ("dlink", 0.06), ("cisco_wap", 0.01),
           ("generic", 0.51)),
    "OTHER": (("fritzbox", 0.015), ("dlink", 0.05), ("cisco_wap", 0.006),
              ("generic", 0.929)),
}

#: Client-device vendor mix (vendor name, weight, region bias).
_CLIENT_VENDORS_EU = (
    ("Amazon Technologies Inc.", 0.22),
    ("Samsung Electronics Co.,Ltd", 0.16),
    ("Sonos, Inc.", 0.12),
    ("AVM GmbH", 0.10),          # AVM smart-home / DECT gear
    ("Intel Corporate", 0.08),
    ("(unlisted)", 0.03),
    ("(local)", 0.29),
)
_CLIENT_VENDORS_ASIA = (
    ("vivo Mobile Communication Co., Ltd.", 0.16),
    ("GUANGDONG OPPO MOBILE TELECOMMUNICATIONS CORP.,LTD", 0.12),
    ("Beijing Xiaomi Electronics Co.,Ltd", 0.10),
    ("Shenzhen Ogemray Technology Co.,Ltd", 0.09),
    ("China Dragon Technology Limited", 0.08),
    ("Qingdao Haier Multimedia Limited.", 0.07),
    ("QING DAO HAIER TELECOM CO.,LTD.", 0.06),
    ("Shenzhen iComm Semiconductor CO.,LTD", 0.05),
    ("Hui Zhou Gaoshengda Technology Co.,LTD", 0.04),
    ("Samsung Electronics Co.,Ltd", 0.08),
    ("(unlisted)", 0.03),
    ("(local)", 0.12),
)
_CLIENT_VENDORS_OTHER = (
    ("Amazon Technologies Inc.", 0.18),
    ("Samsung Electronics Co.,Ltd", 0.15),
    ("Sonos, Inc.", 0.06),
    ("Fiberhome Telecommunication Technologies Co.,LTD", 0.06),
    ("Tenda Technology Co.,Ltd.Dongguan branch", 0.06),
    ("Earda Technologies co Ltd", 0.05),
    ("Guangzhou Shiyuan Electronics Co., Ltd.", 0.05),
    ("Shenzhen Cultraview Digital Technology Co., Ltd", 0.05),
    ("(unlisted)", 0.04),
    ("(local)", 0.30),
)

#: Titles for generic *hitlist-side* servers (long tail of Table 8).
_SERVER_TITLES: Tuple[Tuple[Optional[str], float, bool], ...] = (
    # (title, weight, https_with_public_cert)
    (None, 0.26, True),                       # empty-title default vhosts
    ("Welcome to nginx!", 0.12, True),
    ("Apache2 Ubuntu Default Page: It works", 0.12, True),
    ("Nothing Page", 0.07, True),
    ("(IP) was not found", 0.055, True),      # hosting parking page
    ("Host Europe GmbH - (IP)", 0.05, True),
    ("3CX Webclient", 0.028, True),
    ("3CX Phone System Management Console", 0.024, True),
    ("Plesk Obsidian 18.0.34", 0.022, True),
    ("Index of /pub/", 0.018, True),
    ("Domain Default page", 0.015, True),
    ("Login - Join", 0.014, True),
    ("Hier entsteht eine neue Webseite.", 0.012, True),
    ("FASTPANEL2", 0.010, True),
    ("Selamat, website (IP) telah aktif!", 0.010, False),
    ("Freebox OS :: Identification", 0.009, True),
    ("Hello! Welcome to Synology Web Station!", 0.008, True),
    ("NAS1 - Synology DiskStation", 0.007, True),
    ("this is a mail-in-a-box", 0.006, True),
    ("Sign in · GitLab", 0.006, True),
    ("Outlook", 0.005, True),
    ("Grafana", 0.005, True),
    ("phpMyAdmin", 0.004, True),
    ("Site is under construction", 0.008, False),
    ("Unknown Domain", 0.04, False),
    ("GPON Home Gateway", 0.03, False),
    ("Common UI", 0.002, True),
    ("Webinterface", 0.0005, True),
)

#: Titles for *NTP-side* consumer portals (modems/hotspot UIs, Table 8).
_CONSUMER_PORTAL_TITLES: Tuple[Tuple[str, float], ...] = (
    ("UFI配置管理-ZHXL_V2.0.0", 0.18),
    ("My Modem", 0.15),
    ("Ms Portal", 0.13),
    ("UFI-JZ_V3.0.0", 0.09),
    ("GAID - WIFI NG BAYAN", 0.09),
    ("Common UI", 0.14),
    ("Webinterface", 0.12),
    ("Home", 0.06),
    ("pfsense-nat - Login", 0.02),
    ("OctoPrint Login", 0.01),
    ("Remote Console on LAN", 0.01),
)

#: CoAP resource sets per group (Table 3, bottom right).
COAP_RESOURCE_SETS: Dict[str, Tuple[str, ...]] = {
    "castdevice": ("/castDeviceSearch", "/castSetup"),
    "qlink": ("/qlink/reg", "/qlink/status", "/qlink/pay"),
    "efento": ("/m", "/c", "/t", "/.well-known/core"),
    "nanoleaf": ("/panel/effects", "/panel/state", "/.well-known/core"),
    "empty": (),
    "other": ("/maha", "/.well-known/core"),
}


def _weighted(rng: random.Random, table) -> object:
    choices = [entry[0] for entry in table]
    weights = [entry[1] for entry in table]
    return rng.choices(choices, weights=weights, k=1)[0]


@dataclass
class World:
    """A fully materialized population plus its registries."""

    config: WorldConfig
    rng: random.Random
    clock: VirtualClock
    network: Network
    geo: GeoDatabase
    asdb: AsDatabase
    oui: OuiRegistry
    rdns: ReverseDns = field(default_factory=ReverseDns)
    dns: DnsZone = field(default_factory=DnsZone)
    #: Ground truth: /64 prefixes that answer on every address.
    aliased_prefixes: List[int] = field(default_factory=list)
    devices: List[dev.Device] = field(default_factory=list)
    premises: List[Premises] = field(default_factory=list)
    churn: Optional[ChurnModel] = None
    #: Per-AS next-free /56 index (address plan cursor).
    _alloc_cursor: Dict[int, int] = field(default_factory=dict)
    #: Per-AS cursor of the dense (datacenter) allocation plan.
    _dense_cursor: Dict[int, int] = field(default_factory=dict)
    _mac_cursor: int = field(default=0)

    # -- address plan ----------------------------------------------------

    def allocate_prefix56(self, asn: int) -> int:
        """Next free /56 in an AS (used for premises + churn).

        Delegations are strided across the AS's space (odd-multiplier
        hashing over a 16 Ki-/56 window, i.e. 64 /48s) instead of packed
        densely: real ISPs spread customers over many /48s, which is
        what gives NTP-sourced data its broad-but-dense /48 footprint.
        """
        index = self._alloc_cursor.get(asn, 0)
        self._alloc_cursor[asn] = index + 1
        window = 1 << 14
        spread = (index * 2654435761) % window if index < window else index
        return self.asdb.prefix_for(asn, spread, length=56)

    def allocate_prefix64(self, asn: int) -> int:
        """A standalone /64 (datacenter subnets)."""
        return self.allocate_prefix56(asn)  # /64 slot 0 of a fresh /56

    def allocate_dense_prefix64(self, asn: int, per_56: int = 4) -> int:
        """A /64 packed densely with its AS neighbours.

        Datacenter networks put many servers into shared /56s (and CDNs
        many fronts), which is what makes hitlist scan results compress
        strongly under network aggregation (Appendix C, Table 5).  Dense
        allocations live above the strided premises window, so the two
        plans never collide.
        """
        index = self._dense_cursor.get(asn, 0)
        self._dense_cursor[asn] = index + 1
        window = 1 << 14
        prefix56 = self.asdb.prefix_for(asn, window + index // per_56,
                                        length=56)
        return prefix56 + ((index % per_56) << 64)

    # -- identity fabric ---------------------------------------------------

    def fresh_mac(self, vendor_name: str) -> int:
        """A unique MAC from a vendor's OUI space."""
        self._mac_cursor += 1
        serial = self._mac_cursor & 0xFFFFFF
        if vendor_name == "(unlisted)":
            oui = UNLISTED_OUI
        elif vendor_name == "(local)":
            oui = LOCAL_OUI
        else:
            vendor = self.oui.vendor_named(vendor_name)
            oui = vendor.ouis[self._mac_cursor % len(vendor.ouis)]
        return (oui << 24) | serial

    # -- views --------------------------------------------------------------

    def ntp_clients(self) -> List[dev.Device]:
        """Devices that query the pool (the collectable population)."""
        return [device for device in self.devices if device.is_ntp_client]

    def scannable(self) -> List[dev.Device]:
        """Devices that are reachable and expose at least one service."""
        return [device for device in self.devices
                if device.reachable and device.has_services]

    def dns_named(self) -> List[dev.Device]:
        """Devices with DNS presence (hitlist-discoverable)."""
        return [device for device in self.devices
                if device.labels.get("dns") == "yes"]

    def devices_of_type(self, type_name: str) -> List[dev.Device]:
        return [d for d in self.devices if d.type_name == type_name]


def _place(world: World, device: dev.Device, asn: int, country: str,
           prefix64: int) -> dev.Device:
    device.asn = asn
    device.country = country
    device.assign_address(prefix64, world.rng)
    device.materialize(world.network)
    world.devices.append(device)
    if device.labels.get("dns") == "yes":
        register_dns_name(world, device)
    return device


def register_dns_name(world: World, device: dev.Device) -> None:
    """Publish a (dynamic-)DNS AAAA record for a device.

    The name is stable per device; premises devices will DDNS-update it
    on every prefix rotation (see :class:`repro.world.churn.ChurnModel`).
    """
    if "dns_name" in device.labels:
        return
    name = f"{device.type_name}-{len(world.dns)}.dyn.sim"
    device.labels["dns_name"] = name
    world.dns.register(name, device.address)


def _client_vendor_table(continent: str):
    if continent == "EU":
        return _CLIENT_VENDORS_EU
    if continent == "AS":
        return _CLIENT_VENDORS_ASIA
    return _CLIENT_VENDORS_OTHER


def spawn_client_device(world: World, site: Premises,
                        rng: random.Random) -> Optional[dev.Device]:
    """A new consumer device joins an existing premises mid-campaign.

    Population drift for long-running (service) campaigns: households
    buy phones, TVs, and consoles between collection weeks, so the NTP
    client population grows over a multi-week window.  Mirrors the
    build-time client sampling in ``_populate_premises`` (same vendor
    mix per continent, same 24 % EUI-64 share) so drifted devices are
    statistically indistinguishable from founding ones.  ``rng`` is the
    caller's dedicated drift stream — the world's own RNG is never
    touched, so existing build/churn sequences stay byte-stable.

    Returns ``None`` when the premises' /56 is full (256 /64 slots).
    """
    slot = len(site.devices)
    if slot >= 256:
        return None
    continent = world.geo.country(site.country).continent
    vendor = _weighted(rng, _client_vendor_table(continent))
    use_eui64 = rng.random() < 0.24
    mac = world.fresh_mac(vendor) if use_eui64 else None
    device = dev.make_client_device(
        rng, site.site_id, mac, vendor,
        addressing="eui64" if use_eui64 else "privacy")
    site.devices.append(device)
    return _place(world, device, site.asn, site.country,
                  site.device_prefix64(slot))


def retire_client_device(world: World, site: Premises,
                         device: dev.Device) -> None:
    """Take a consumer device offline for good (population drift).

    The device object stays in ``world.devices`` (it existed; collected
    history referencing its addresses remains valid) but leaves the
    premises roster, stops emitting NTP, and disappears from the
    network — so future churn rotations and collection days no longer
    see it.
    """
    device.ntp_interval = None
    device.reachable = False
    world.network.remove_host(device.address)
    try:
        site.devices.remove(device)
    except ValueError:
        pass


def _make_router(world: World, rng: random.Random, index: int,
                 country: str, continent: str) -> dev.Device:
    bucket = "DE" if country == "DE" else ("EU" if continent == "EU" else "OTHER")
    kind = _weighted(rng, _ROUTER_MIX[bucket])
    if kind == "fritzbox":
        # A slice of the AVM fleet are repeaters/powerline adapters that
        # also sit directly on the customer prefix.
        roll = rng.random()
        mac = world.fresh_mac(
            "AVM Audiovisuelles Marketing und Computersysteme GmbH"
        )
        if roll < 0.05:
            return dev.make_fritz_powerline(rng, index, mac)
        if roll < 0.11:
            return dev.make_fritz_repeater(rng, index, mac)
        return dev.make_fritzbox(rng, index, mac)
    if kind == "dlink":
        return dev.make_dlink_router(rng, index,
                                     world.fresh_mac("D-Link International"))
    if kind == "cisco_wap":
        return dev.make_cisco_wap(rng, index,
                                  world.fresh_mac("Cisco Systems, Inc"))
    return dev.make_generic_cpe(
        rng, index,
        world.fresh_mac("(unlisted)") if rng.random() < 0.03 else None,
    )


def _sample_ssh(rng: random.Random, *, distro: str,
                managed: bool, key: KeyIdentity, ntp: bool,
                segment: str = "server",
                addressing: Optional[str] = None,
                mac: Optional[int] = None) -> dev.Device:
    releases = ssh_releases.releases_for(distro)
    # Newer releases dominate; stable tails linger.
    weights = [3.0, 1.6, 0.7][: len(releases)]
    release = rng.choices(releases, weights=weights, k=1)[0]
    latest_rate = (MANAGED_LATEST_RATE if managed
                   else UNMANAGED_LATEST_RATE)
    if rng.random() < latest_rate:
        patch = release.latest
    else:
        patch = rng.choice(release.patches[:-1]) if len(release.patches) > 1 \
            else release.latest
    outdated = patch != release.latest
    return dev.make_ssh_host(
        rng, 0, os_name=distro,
        software=release.banner_software(),
        comment=release.banner_comment(patch),
        host_key=key, ntp=ntp, segment=segment,
        addressing=addressing, mac=mac, outdated=outdated,
    )


def _populate_premises(world: World, site: Premises, continent: str,
                       ssh_pool_unmanaged: KeyPool) -> None:
    rng = world.rng
    country = site.country
    slot = 0

    def place(device: dev.Device) -> dev.Device:
        nonlocal slot
        prefix64 = site.device_prefix64(slot)
        slot += 1
        site.devices.append(device)
        return _place(world, device, site.asn, country, prefix64)

    router = _make_router(world, rng, site.site_id, country, continent)
    if rng.random() < CONSUMER_DNS_RATE and router.has_services:
        router.labels["dns"] = "yes"
    place(router)

    # FRITZ!Boxes expose their web UI (and emit NTP) from a second
    # interface in another /64 of the same delegated /56 — the reason
    # the paper sees ~2 FRITZ IPs per /56 but ~1 per /64 (Table 6).
    if router.type_name == "fritzbox":
        mirror_labels = {key: value for key, value in router.labels.items()
                         if key not in ("dns", "dns_name")}
        mirror_labels["mirror"] = "yes"
        mirror = dev.Device(
            type_name="fritzbox",
            addressing="eui64",
            mac=router.mac,
            ntp_interval=router.ntp_interval,
            reachable=router.reachable,
            web=router.web,  # the same device: same title, same cert
            labels=mirror_labels,
        )
        place(mirror)

    vendor_table = _client_vendor_table(continent)
    for _ in range(rng.randint(1, 5)):
        vendor = _weighted(rng, vendor_table)
        use_eui64 = rng.random() < 0.24
        mac = world.fresh_mac(vendor) if use_eui64 else None
        place(dev.make_client_device(
            rng, site.site_id, mac, vendor,
            addressing="eui64" if use_eui64 else "privacy",
        ))

    # Hobbyist Raspberry Pi with exposed SSH.
    if rng.random() < 0.02:
        key = ssh_pool_unmanaged.draw(rng)
        pi = _sample_ssh(
            rng, distro="Raspbian", managed=False, key=key,
            ntp=True, segment="consumer", addressing="eui64",
            mac=world.fresh_mac("Raspberry Pi Foundation"),
        )
        place(pi)
        if rng.random() < 0.004:
            pi.labels["dns"] = "yes"
            register_dns_name(world, pi)

    # Home Debian/Ubuntu box (NAS, home server) exposed via SSH.
    if rng.random() < 0.012:
        key = ssh_pool_unmanaged.draw(rng)
        place(_sample_ssh(
            rng, distro=rng.choice(["Debian", "Ubuntu"]),
            managed=False, key=key, ntp=True, segment="consumer",
            addressing="structured",
        ))

    # Consumer web portals (UFI modems, hotspot UIs) — Asia-heavy.
    portal_rate = 0.035 if continent == "AS" else 0.004
    if rng.random() < portal_rate:
        title = _weighted(rng, _CONSUMER_PORTAL_TITLES)
        # White-label firmware ships one baked-in certificate per
        # title/model: same hostname seed => same cert and key.
        slug = "".join(ch for ch in title if ch.isalnum()).lower() or "portal"
        portal = dev.make_web_server(
            rng, 0, title=title, https=rng.random() < 0.5,
            public_cert=False, hostname=f"{slug}.portal.sim",
            ntp=True, type_name="consumer_portal", segment="consumer",
        )
        portal.labels.pop("dns", None)
        portal.ntp_interval = 3600.0
        place(portal)

    # CoAP media devices ("castdevice") — never DNS-named.
    if rng.random() < 0.018:
        place(dev.make_coap_device(
            rng, site.site_id,
            resources=COAP_RESOURCE_SETS["castdevice"], group="castdevice",
            ntp=True, mac=world.fresh_mac("(unlisted)"),
        ))

    # qlink crypto-Wi-Fi hotspots: NTP *and* partially DNS-listed.
    if rng.random() < 0.016:
        hotspot = dev.make_coap_device(
            rng, site.site_id,
            resources=COAP_RESOURCE_SETS["qlink"], group="qlink", ntp=True,
        )
        place(hotspot)
        if rng.random() < 0.5:
            hotspot.labels["dns"] = "yes"
            register_dns_name(world, hotspot)

    # Sensor-style IoT (efento/nanoleaf): vendor-cloud time sync (no
    # pool NTP) but DNS-registered — the hitlist's IoT slice.
    if rng.random() < 0.004:
        group = rng.choice(["efento", "nanoleaf"])
        sensor = dev.make_coap_device(
            rng, site.site_id, resources=COAP_RESOURCE_SETS[group],
            group=group, ntp=False,
            mac=world.fresh_mac("Nanoleaf") if group == "nanoleaf"
            else world.fresh_mac("Espressif Inc."),
        )
        sensor.labels["dns"] = "yes"
        place(sensor)

    # CoAP endpoints with an empty or odd resource directory.
    if rng.random() < 0.003:
        group = rng.choice(["empty", "other"])
        place(dev.make_coap_device(
            rng, site.site_id, resources=COAP_RESOURCE_SETS[group],
            group=group, ntp=True,
        ))

    # Unmanaged home MQTT broker (smart-home hub).
    if rng.random() < 0.010:
        broker = dev.make_mqtt_broker(
            rng, site.site_id,
            require_auth=rng.random() < UNMANAGED_MQTT_AUTH_RATE,
            tls=rng.random() < 0.07, ntp=True, segment="consumer",
        )
        place(broker)


def _populate_hosting_as(world: World, system: AutonomousSystem,
                         ssh_pool: KeyPool) -> None:
    rng = world.rng
    scale = world.config.scale

    def place_standalone(device: dev.Device) -> dev.Device:
        prefix64 = world.allocate_dense_prefix64(system.number)
        return _place(world, device, system.number, system.country, prefix64)

    web_count = max(1, round(WEB_PER_HOSTING_AS * scale))
    for index in range(web_count):
        title, _, https = _SERVER_TITLES[
            rng.choices(range(len(_SERVER_TITLES)),
                        weights=[w for _, w, _ in _SERVER_TITLES], k=1)[0]
        ]
        server = dev.make_web_server(
            rng, index, title=title, https=https, public_cert=True,
            hostname=f"www-{system.number}-{index}.sim",
            ntp=rng.random() < 0.25,
        )
        place_standalone(server)

    ssh_count = max(1, round(SSH_PER_HOSTING_AS * scale))
    for index in range(ssh_count):
        distro = rng.choices(["Ubuntu", "Debian"], weights=[0.68, 0.32], k=1)[0]
        key = ssh_pool.draw(rng)
        host = _sample_ssh(
            rng, distro=distro, managed=True, key=key,
            ntp=rng.random() < 0.25,
        )
        host.labels["dns"] = "yes"
        place_standalone(host)

    for index in range(max(1, round(MQTT_PER_HOSTING_AS * scale))):
        broker = dev.make_mqtt_broker(
            rng, index,
            require_auth=rng.random() < MANAGED_MQTT_AUTH_RATE,
            tls=rng.random() < 0.35, ntp=rng.random() < 0.12,
            segment="server",
        )
        broker.labels["dns"] = "yes"
        place_standalone(broker)

    for index in range(max(1, round(AMQP_PER_HOSTING_AS * scale))):
        broker = dev.make_amqp_broker(
            rng, index,
            require_auth=rng.random() < AMQP_AUTH_RATE,
            tls=rng.random() < 0.3, ntp=rng.random() < 0.3,
            segment="server",
        )
        broker.labels["dns"] = "yes"
        place_standalone(broker)

    # Cloud-side CoAP endpoints (device-management REST-ish surfaces).
    if rng.random() < 0.5:
        group = rng.choices(["qlink", "efento", "other", "empty"],
                            weights=[0.3, 0.2, 0.1, 0.4], k=1)[0]
        endpoint = dev.make_coap_device(
            rng, 0, resources=COAP_RESOURCE_SETS[group], group=group,
            ntp=False,
        )
        endpoint.labels["dns"] = "yes"
        place_standalone(endpoint)


def _populate_research_as(world: World, system: AutonomousSystem,
                          ssh_pool: KeyPool) -> None:
    rng = world.rng
    count = max(1, round(FREEBSD_PER_RESEARCH_AS * world.config.scale))
    for index in range(count):
        key = ssh_pool.draw(rng)
        host = dev.make_ssh_host(
            rng, index, os_name="FreeBSD",
            software="OpenSSH_9.6",
            comment=f"FreeBSD-2024{rng.choice(['0318', '0618'])}",
            host_key=key, ntp=rng.random() < 0.2,
        )
        host.labels["dns"] = "yes"
        prefix64 = world.allocate_dense_prefix64(system.number)
        _place(world, host, system.number, system.country, prefix64)


def _populate_cdn(world: World, cloud_systems: List[AutonomousSystem]) -> None:
    rng = world.rng
    count = max(2, round(CDN_FRONTS * world.config.scale))
    for index in range(count):
        system = cloud_systems[index % len(cloud_systems)]
        front = dev.make_web_server(
            rng, index, title=None, https=True, public_cert=True,
            hostname=f"front-{index}.cdn.sim", ntp=False,
            type_name="cdn_front", sni_required=True, segment="cdn",
        )
        prefix64 = world.allocate_dense_prefix64(system.number, per_56=64)
        _place(world, front, system.number, system.country, prefix64)

    # Aliased edge subnets: a load balancer answers for every address
    # of the /64 with the same SNI-gated CDN personality.  They live in
    # the same dense CDN /56s, which is how hitlist TGAs stumble into
    # them.
    aliased = max(1, round(ALIASED_64S * world.config.scale))
    for index in range(aliased):
        system = cloud_systems[index % len(cloud_systems)]
        edge = dev.make_web_server(
            rng, 100_000 + index, title=None, https=True, public_cert=True,
            hostname=f"edge-{index}.cdn.sim", ntp=False,
            type_name="cdn_front", sni_required=True, segment="cdn",
        )
        prefix64 = world.allocate_dense_prefix64(system.number, per_56=64)
        _place(world, edge, system.number, system.country, prefix64)
        wildcard = world.network.add_wildcard_host(prefix64)
        edge.bind_services(wildcard)
        world.aliased_prefixes.append(prefix64)


def build_world(config: Optional[WorldConfig] = None) -> World:
    """Generate a complete world from a config (deterministically)."""
    config = config or WorldConfig()
    rng = random.Random(config.seed)
    clock = VirtualClock()
    network = Network(clock=clock, rng=random.Random(config.seed ^ 0xF00D))
    geo = default_geo()
    asdb = build_asdb(geo.codes, rng=random.Random(config.seed ^ 0xA5))
    world = World(
        config=config, rng=rng, clock=clock, network=network,
        geo=geo, asdb=asdb, oui=default_registry(),
    )

    ssh_pool_managed = KeyPool("managed", size=SSH_POOL_SIZE,
                               reuse_rate=SSH_REUSE_RATE)
    ssh_pool_unmanaged = KeyPool("unmanaged", size=UNMANAGED_SSH_POOL_SIZE,
                                 reuse_rate=UNMANAGED_SSH_REUSE_RATE)

    eyeballs: Dict[str, List[AutonomousSystem]] = {}
    hosting: List[AutonomousSystem] = []
    research: List[AutonomousSystem] = []
    clouds: List[AutonomousSystem] = []
    for system in asdb.systems:
        if system.category == "Cable/DSL/ISP":
            eyeballs.setdefault(system.country, []).append(system)
        elif system.name.startswith("HyperCloud"):
            clouds.append(system)
        elif system.category == "Content":
            hosting.append(system)
        elif system.category == "Educational/Research":
            research.append(system)

    def fresh_prefix56(site: Premises) -> int:
        return world.allocate_prefix56(site.asn)

    churn = ChurnModel(network, rng, fresh_prefix56, dns=world.dns,
                       clock=clock)
    world.churn = churn

    site_id = 0
    for country in geo.countries:
        systems = eyeballs.get(country.code)
        if not systems:
            continue
        count = max(1, round(country.client_weight
                             * PREMISES_BASE * config.scale))
        for _ in range(count):
            system = rng.choice(systems)
            site = Premises(
                site_id=site_id,
                asn=system.number,
                country=country.code,
                prefix56=world.allocate_prefix56(system.number),
                rotation_rate=(0.0 if rng.random() < STATIC_PREFIX_RATE
                               else ROTATION_RATE),
            )
            site_id += 1
            _populate_premises(world, site, country.continent,
                               ssh_pool_unmanaged)
            churn.register(site)
            world.premises.append(site)

    for system in hosting:
        _populate_hosting_as(world, system, ssh_pool_managed)
    for system in research:
        _populate_research_as(world, system, ssh_pool_managed)
    _populate_cdn(world, clouds)

    return world
