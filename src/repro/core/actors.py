"""Third-party scanners that source targets from their own pool servers.

Section 5 of the paper identifies two such actors in the wild:

* an **overt research actor** ("GT"): 15 pool servers, scans begin less
  than an hour after the NTP response and last about ten minutes,
  covering 1011 ports — no attempt to hide, operated from identifiable
  research address space;
* a **covert actor**: pool servers and scan sources in *different*
  cloud providers, a small security-sensitive port set (HTTPS, RDP/VNC
  /X11 remote access, Elasticsearch, MongoDB), connection attempts
  spread over days with long gaps, and not every port probed on every
  address — consistent with detection avoidance.

Both are modelled as :class:`NtpSourcingActor` configurations.  The
actor runs capture NTP servers registered in the pool; every captured
client address is scheduled for a port scan according to its profile.
The telescope (same module family) observes the resulting SYNs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.net.clock import DAY, EventScheduler, HOUR, MINUTE
from repro.ntp.packet import NtpPacket
from repro.ntp.pool import NtpPool
from repro.ntp.server import NtpServer
from repro.world.population import World

#: The covert actor's observed port set (paper Section 5.2).
COVERT_PORTS: Tuple[int, ...] = (
    443, 8443, 3388, 3389, 5900, 5901, 6000, 6001, 9200, 27017,
)

#: The research actor's port count (we generate a deterministic list).
RESEARCH_PORT_COUNT = 1011


def research_ports() -> Tuple[int, ...]:
    """A deterministic 1011-port list including FTP, BGP, Postgres.

    The stride lands on some well-known ports already seeded into
    ``base`` (3306 = 1024 + 7*326, 5672, 9200); those collisions are
    skipped explicitly so the walk provably adds one *new* port per
    step and the count invariant holds without truncation.  The bound
    check can't trip at the current count (the walk tops out well below
    10 000) but pins the invariant that every port stays valid.
    """
    base = {21, 22, 23, 25, 53, 80, 110, 143, 179, 443, 465, 587, 993,
            995, 1883, 3306, 5432, 5672, 5683, 8080, 8443, 9200, 27017}
    port = 1024
    while len(base) < RESEARCH_PORT_COUNT:
        if port > 65535:
            raise RuntimeError(
                f"port stride exhausted the 16-bit range at "
                f"{len(base)} of {RESEARCH_PORT_COUNT} ports")
        if port not in base:
            base.add(port)
        port += 7
    return tuple(sorted(base))


@dataclass
class ActorProfile:
    """Behavioural parameters of one NTP-sourcing scanner."""

    name: str
    #: Pool servers the actor operates.
    server_count: int
    #: Ports probed (full coverage for research, sampled for covert).
    ports: Tuple[int, ...]
    #: Scan start delay after capturing an address (seconds, uniform).
    delay_min: float
    delay_max: float
    #: Duration over which one address's ports are spread.
    spread: float
    #: Probability that any given port is probed on a given address.
    port_coverage: float
    #: AS category the actor's *scanner* sources live in.
    scanner_segment: str  # "research" | "cloud"
    #: Whether servers and scanners share a provider (the covert actor
    #: splits them across two clouds).
    split_providers: bool = False
    #: PTR pattern published for scanner addresses (None = no rDNS,
    #: the covert actor's choice).  ``{index}`` interpolates.
    rdns_pattern: Optional[str] = None


def research_profile(name: str = "GT") -> ActorProfile:
    """The overt research actor's behaviour."""
    return ActorProfile(
        name=name,
        server_count=15,
        ports=research_ports(),
        delay_min=5 * MINUTE,
        delay_max=55 * MINUTE,
        spread=10 * MINUTE,
        port_coverage=1.0,
        scanner_segment="research",
        rdns_pattern="ipv6-research-scanner-{index}.gt.example.edu",
    )


def covert_profile(name: str = "covert") -> ActorProfile:
    """The covert actor's behaviour."""
    return ActorProfile(
        name=name,
        server_count=4,
        ports=COVERT_PORTS,
        delay_min=6 * HOUR,
        delay_max=4 * DAY,
        spread=3 * DAY,
        port_coverage=0.6,
        scanner_segment="cloud",
        split_providers=True,
    )


class NtpSourcingActor:
    """A scanner wired to its own capture servers in the pool."""

    def __init__(self, world: World, pool: NtpPool,
                 scheduler: EventScheduler, profile: ActorProfile, *,
                 server_base: int, scanner_base: int,
                 zones: Sequence[str], seed: int = 0) -> None:
        self.world = world
        self.pool = pool
        self.scheduler = scheduler
        self.profile = profile
        self.rng = random.Random(seed)
        self.servers: List[NtpServer] = []
        self.scanner_addresses: List[int] = []
        self.scans_launched = 0
        self.probes_sent = 0
        self._seen: set = set()
        self._deploy(server_base, scanner_base, zones)

    def _deploy(self, server_base: int, scanner_base: int,
                zones: Sequence[str]) -> None:
        for index in range(self.profile.server_count):
            address = server_base + (index << 64)
            server = NtpServer(self.world.network, address,
                               location=f"{self.profile.name}-{index}")
            server.add_capture_hook(self._on_capture)
            self.servers.append(server)
            zone = zones[index % len(zones)]
            self.pool.register(address, zone, netspeed=1000,
                               operator=self.profile.name)
        for index in range(4):
            address = scanner_base + (index << 64)
            self.world.network.add_host(address, reachable=True)
            self.scanner_addresses.append(address)
        if self.profile.rdns_pattern is not None:
            self.world.rdns.register_range(self.scanner_addresses,
                                           self.profile.rdns_pattern)

    # -- capture → scan -----------------------------------------------------

    def _on_capture(self, client: int, client_port: int,
                    request: NtpPacket, time: float) -> None:
        if client in self._seen:
            return
        self._seen.add(client)
        delay = self.rng.uniform(self.profile.delay_min,
                                 self.profile.delay_max)
        self.scheduler.call_at(time + delay, lambda: self._scan(client))

    def _scan(self, target: int) -> None:
        self.scans_launched += 1
        ports = [port for port in self.profile.ports
                 if self.rng.random() < self.profile.port_coverage]
        start = self.world.clock.now()
        for index, port in enumerate(ports):
            offset = (self.rng.uniform(0, self.profile.spread)
                      if self.profile.spread > 0 else 0.0)
            self.scheduler.call_at(start + offset,
                                   lambda p=port: self._probe(target, p))
            if index >= 64:
                # Cap per-address probes so huge port lists stay tractable;
                # the telescope only needs the port *profile*, not all 1011.
                break

    def _probe(self, target: int, port: int) -> None:
        source = self.rng.choice(self.scanner_addresses)
        self.probes_sent += 1
        stream = self.world.network.tcp_connect(source, target, port)
        if stream is not None:
            stream.close()


def deploy_section5_actors(world: World, pool: NtpPool,
                           scheduler: EventScheduler, *,
                           research_zones: Sequence[str] = ("us", "de", "jp"),
                           covert_zones: Sequence[str] = ("us", "nl"),
                           ) -> Tuple[NtpSourcingActor, NtpSourcingActor]:
    """Deploy the paper's two Section-5 actors into ``pool``.

    The research actor "GT" (seed 1) runs its servers in the first
    HyperCloud AS, in the pool zones ``research_zones``, and scans from
    the research AS; the covert actor (seed 2) runs its servers in the
    second HyperCloud AS, in ``covert_zones``, and scans from the
    third.  Returns ``(research, covert)``.
    """
    research_as = next(s for s in world.asdb.systems
                       if s.category == "Educational/Research")
    clouds = [s for s in world.asdb.systems
              if s.name.startswith("HyperCloud")]
    research = NtpSourcingActor(
        world, pool, scheduler, research_profile("GT"),
        server_base=world.allocate_prefix64(clouds[0].number),
        scanner_base=world.allocate_prefix64(research_as.number),
        zones=list(research_zones), seed=1)
    covert = NtpSourcingActor(
        world, pool, scheduler, covert_profile("covert"),
        server_base=world.allocate_prefix64(clouds[1].number),
        scanner_base=world.allocate_prefix64(clouds[2].number),
        zones=list(covert_zones), seed=2)
    return research, covert
