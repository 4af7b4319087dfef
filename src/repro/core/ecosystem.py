"""A population of scanner actors beyond the NTP-sourcing pair.

Section 5 of the paper attributes telescope traffic to two NTP-sourcing
actors, but real telescopes ("Glowing in the Dark", "Illuminating
Large-Scale IPv6 Scanning") see a whole ecosystem of scanners whose
address-discovery strategies differ — and those strategies leave
distinct fingerprints in probe arrival patterns.  This module models
that population:

* :class:`HitlistSweepActor` — replays a published hitlist in several
  regular rounds (high revisit ratio, metronomic timing);
* :class:`TgaActor` — target-generation around seed addresses by
  low-entropy IID mutation (many candidates packed into few /64s);
* :class:`RdnsWalkActor` — walks the reverse-DNS zone with a word
  dictionary and probes only PTR-bearing names (ptr share ~1);
* :class:`ResidentialSweepActor` — sweeps one low IID across many
  consecutive residential /64s (broadband recon, Bruns' thesis);
* :class:`AmplificationReconActor` — sweeps UDP/123 monlist probes
  hunting open NTP amplifiers (near-pure port-123 profile).

Every actor precomputes its full probe **plan** ``(when, src, dst,
port)`` from a private seeded RNG at deploy time and fires it through
the shared :class:`~repro.net.clock.EventScheduler`; runs are therefore
deterministic byte for byte, and every probe is attributable to the
actor's configured address source — properties the ecosystem test
suite asserts directly.

:class:`ScannerPopulation` deploys actors and keeps the simulation's
ground truth (source address → strategy), which the attribution layer
(:mod:`repro.core.attribution`) scores its confusion matrix against.
Actors only need a :class:`~repro.net.simnet.Network` and a scheduler —
no :class:`World` — so unit tests stay fast; :func:`leak_scenario`
builds the standard mixed population whose targets "leak" into a
telescope's bait /48 the way real telescope prefixes end up in
hitlists and rDNS zones.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ipv6 import address as addrmod
from repro.net.clock import EventScheduler, MINUTE
from repro.net.rdns import ReverseDns
from repro.net.simnet import Network
from repro.obs.metrics import current_registry

#: Subnet-index layout (bits 64-79) inside a telescope /48 for leaked
#: targets.  The telescope's own bait counter starts at 0x1000; each
#: strategy gets a disjoint range so subnet locality separates them.
HITLIST_SUBNET_BASE = 0x2000
RDNS_SUBNET_BASE = 0x4000
RESIDENTIAL_SUBNET_BASE = 0x6000
TGA_SUBNET_BASE = 0x8000
AMPLIFICATION_SUBNET_BASE = 0xA000

#: PTR vocabulary the rDNS walker (and the leak scenario) share.
RDNS_DICTIONARY: Tuple[str, ...] = ("www", "mail", "ns", "vpn", "gw", "host")


class ScannerActor:
    """Base scanner: a seeded plan of probes fired on the scheduler.

    Subclasses implement :meth:`plan` — a pure function of the
    constructor arguments and the actor's private RNG — returning the
    complete ``(when, src, dst, port)`` probe stream.  ``deploy()``
    registers the source hosts, freezes the plan, and schedules every
    probe; ``probe_log`` records fired probes in virtual-time order.
    """

    strategy = "generic"

    def __init__(self, network: Network, scheduler: EventScheduler, *,
                 name: str, sources: Sequence[int], seed: int,
                 start: float = 0.0) -> None:
        if not sources:
            raise ValueError(f"{name}: an actor needs at least one source")
        self.network = network
        self.scheduler = scheduler
        self.name = name
        self.sources = tuple(sources)
        self.start = start
        self.rng = random.Random(seed)
        self.probes_sent = 0
        self.probe_log: List[Tuple[float, int, int, int]] = []
        self._plan: Optional[Tuple[Tuple[float, int, int, int], ...]] = None

    # -- planning -----------------------------------------------------------

    def plan(self) -> List[Tuple[float, int, int, int]]:
        """The full probe stream ``(when, src, dst, port)``."""
        raise NotImplementedError

    def planned(self) -> Tuple[Tuple[float, int, int, int], ...]:
        """The frozen plan (computed once; deploy() freezes it too)."""
        if self._plan is None:
            self._plan = tuple(self.plan())
        return self._plan

    # -- execution ----------------------------------------------------------

    def deploy(self) -> None:
        """Register source hosts and schedule the whole plan."""
        for source in self.sources:
            if self.network.host(source) is None:
                self.network.add_host(source, reachable=True)
        for when, src, dst, port in self.planned():
            self.scheduler.call_at(
                when, lambda s=src, d=dst, p=port: self._probe(s, d, p))

    def _probe(self, src: int, dst: int, port: int) -> None:
        self.probes_sent += 1
        self.probe_log.append((self.network.clock.now(), src, dst, port))
        current_registry().counter(
            "ecosystem_probes_total", strategy=self.strategy).inc()
        stream = self.network.tcp_connect(src, dst, port)
        if stream is not None:
            stream.close()

    def _source(self) -> int:
        return self.rng.choice(self.sources)


class HitlistSweepActor(ScannerActor):
    """Replays a published hitlist, port by port, in regular rounds."""

    strategy = "hitlist"
    #: Ports probed per target, and seconds between probes.
    ports = (22, 80, 443)
    interval = 30.0

    def __init__(self, network: Network, scheduler: EventScheduler, *,
                 name: str, sources: Sequence[int],
                 targets: Sequence[int], rounds: int = 2,
                 seed: int = 0, start: float = 0.0) -> None:
        super().__init__(network, scheduler, name=name, sources=sources,
                         seed=seed, start=start)
        if rounds < 1:
            raise ValueError(f"rounds={rounds}: must be >= 1")
        self.targets = tuple(targets)
        self.rounds = rounds

    def plan(self) -> List[Tuple[float, int, int, int]]:
        stream = []
        when = self.start
        for _ in range(self.rounds):
            for dst in self.targets:
                for port in self.ports:
                    stream.append((when, self._source(), dst, port))
                    when += self.interval
        return stream


class TgaActor(ScannerActor):
    """Entropy-guided generation: low-entropy IID mutation around seeds.

    Real TGAs (6Gen/entropy-ip style) concentrate candidates into the
    /64s of their seeds, flipping low bits of observed IIDs.  That
    concentration — several distinct destinations per destination /64 —
    is the attribution signature.
    """

    strategy = "tga"
    #: Ports probed per candidate, and mean seconds between probes.
    ports = (443,)
    interval = 20.0

    def __init__(self, network: Network, scheduler: EventScheduler, *,
                 name: str, sources: Sequence[int],
                 seeds: Sequence[int], candidates_per_seed: int = 6,
                 seed: int = 0, start: float = 0.0) -> None:
        super().__init__(network, scheduler, name=name, sources=sources,
                         seed=seed, start=start)
        if candidates_per_seed < 1:
            raise ValueError(
                f"candidates_per_seed={candidates_per_seed}: must be >= 1")
        self.seeds = tuple(seeds)
        self.candidates_per_seed = candidates_per_seed

    def _mutations(self, seed_address: int) -> List[int]:
        prefix64 = addrmod.prefix(seed_address, 64)
        base_iid = addrmod.iid(seed_address)
        produced: List[int] = []
        seen = {base_iid}
        while len(produced) < self.candidates_per_seed:
            candidate = base_iid ^ self.rng.randrange(1, 0x100)
            if candidate in seen:
                continue
            seen.add(candidate)
            produced.append(addrmod.with_iid(prefix64, candidate))
        return produced

    def plan(self) -> List[Tuple[float, int, int, int]]:
        stream = []
        when = self.start
        for seed_address in self.seeds:
            for dst in self._mutations(seed_address):
                for port in self.ports:
                    stream.append((when, self._source(), dst, port))
                    when += self.interval * self.rng.uniform(0.5, 1.5)
        return stream


class RdnsWalkActor(ScannerActor):
    """Walks a reverse-DNS zone and probes dictionary-named hosts."""

    strategy = "rdns"
    #: Ports probed per matched name, and seconds between probes.
    ports = (80, 443)
    interval = 45.0

    def __init__(self, network: Network, scheduler: EventScheduler, *,
                 name: str, sources: Sequence[int], rdns: ReverseDns,
                 zone48: int, seed: int = 0, start: float = 0.0) -> None:
        super().__init__(network, scheduler, name=name, sources=sources,
                         seed=seed, start=start)
        self.rdns = rdns
        self.zone48 = addrmod.prefix(zone48, 48)

    def _walk(self) -> List[int]:
        """Zone addresses whose PTR names match the dictionary, sorted."""
        matched = []
        for address, name in self.rdns.entries():
            if addrmod.prefix(address, 48) != self.zone48:
                continue
            lowered = name.lower()
            if any(word in lowered for word in RDNS_DICTIONARY):
                matched.append(address)
        return sorted(matched)

    def plan(self) -> List[Tuple[float, int, int, int]]:
        stream = []
        when = self.start
        for dst in self._walk():
            for port in self.ports:
                stream.append((when, self._source(), dst, port))
                when += self.interval
        return stream


class ResidentialSweepActor(ScannerActor):
    """Sweeps low IIDs across consecutive residential /64s.

    Broadband recon probes the gateway address (::1 and friends) of
    every customer subnet in a delegation — many distinct /64s, one
    low-IID address each, metronomic pacing.
    """

    strategy = "residential"
    #: IIDs probed per subnet, ports per address, seconds between probes.
    iids = (1,)
    ports = (443,)
    interval = 15.0

    def __init__(self, network: Network, scheduler: EventScheduler, *,
                 name: str, sources: Sequence[int], base48: int,
                 subnet_start: int, subnet_count: int, seed: int = 0,
                 start: float = 0.0) -> None:
        super().__init__(network, scheduler, name=name, sources=sources,
                         seed=seed, start=start)
        if subnet_count < 1:
            raise ValueError(f"subnet_count={subnet_count}: must be >= 1")
        self.base48 = addrmod.prefix(base48, 48)
        self.subnet_start = subnet_start
        self.subnet_count = subnet_count

    def _targets(self) -> List[int]:
        return [self.base48 + ((self.subnet_start + index) << 64) + iid
                for index in range(self.subnet_count)
                for iid in self.iids]

    def plan(self) -> List[Tuple[float, int, int, int]]:
        stream = []
        when = self.start
        for dst in self._targets():
            for port in self.ports:
                stream.append((when, self._source(), dst, port))
                when += self.interval
        return stream


class AmplificationReconActor(ScannerActor):
    """Sweeps for open NTP amplifiers: UDP monlist probes to port 123.

    The DRDoS-recon pattern the NTP scanning literature documents
    (Czyz et al.'s amplification measurements, the paper's Fig 2/3
    story): low-IID sweeps across consecutive subnets, every probe a
    72-byte mode-7 monlist request to UDP/123.  The near-pure UDP/123
    port profile is the attribution fingerprint — no TCP service scan
    shares it.
    """

    strategy = "amplification"
    #: IIDs probed per subnet, the monlist port, seconds between probes.
    iids = (1,)
    port = 123
    interval = 12.0

    def __init__(self, network: Network, scheduler: EventScheduler, *,
                 name: str, sources: Sequence[int], base48: int,
                 subnet_start: int, subnet_count: int, seed: int = 0,
                 start: float = 0.0) -> None:
        super().__init__(network, scheduler, name=name, sources=sources,
                         seed=seed, start=start)
        if subnet_count < 1:
            raise ValueError(f"subnet_count={subnet_count}: must be >= 1")
        self.base48 = addrmod.prefix(base48, 48)
        self.subnet_start = subnet_start
        self.subnet_count = subnet_count

    def _targets(self) -> List[int]:
        return [self.base48 + ((self.subnet_start + index) << 64) + iid
                for index in range(self.subnet_count)
                for iid in self.iids]

    def plan(self) -> List[Tuple[float, int, int, int]]:
        stream = []
        when = self.start
        for dst in self._targets():
            stream.append((when, self._source(), dst, self.port))
            when += self.interval
        return stream

    def _probe(self, src: int, dst: int, port: int) -> None:
        # UDP, not TCP: a monlist request, the telescope records the
        # dst-port-123 datagram whether or not anything answers.
        from repro.ntp.control import monlist_request

        self.probes_sent += 1
        self.probe_log.append((self.network.clock.now(), src, dst, port))
        current_registry().counter(
            "ecosystem_probes_total", strategy=self.strategy).inc()
        self.network.udp_request(
            src, dst, port,
            monlist_request(sequence=self.probes_sent & 0x7F).encode())


# -- population + ground truth ------------------------------------------------


class ScannerPopulation:
    """Deploys a mixed actor population and holds the ground truth.

    The truth map (source address → strategy) is what the attribution
    layer's confusion matrix is scored against.  Actors created outside
    this module (the NTP-sourcing pair) register their sources through
    :meth:`add_external` so one table covers the whole population.
    """

    def __init__(self, network: Network,
                 scheduler: EventScheduler) -> None:
        self.network = network
        self.scheduler = scheduler
        self.actors: List[ScannerActor] = []
        self._truth: Dict[int, str] = {}

    def add(self, actor: ScannerActor) -> ScannerActor:
        """Deploy an actor and record its sources' ground truth."""
        actor.deploy()
        self.actors.append(actor)
        self._truth.update(dict.fromkeys(actor.sources, actor.strategy))
        return actor

    def add_external(self, strategy: str, sources: Iterable[int]) -> None:
        """Register ground truth for an actor deployed elsewhere."""
        self._truth.update(dict.fromkeys(sources, strategy))

    def ground_truth(self) -> Dict[int, str]:
        """source address → strategy, for attribution scoring."""
        return dict(self._truth)

    def rows(self) -> List[dict]:
        """One summary row per deployed actor (report table shape)."""
        return [{"actor": actor.name, "strategy": actor.strategy,
                 "sources": len(actor.sources),
                 "planned": len(actor.planned()),
                 "probes_sent": actor.probes_sent}
                for actor in self.actors]


# -- the standard leak scenario ----------------------------------------------


#: The standard leak scenario's shape: hitlist targets and sweep
#: rounds, TGA seeds and candidates per seed, leaked rDNS names,
#: residential and amplification subnets swept, and the seed the
#: scenario's RNG and actors derive from.
LEAK_HITLIST_TARGETS = 12
LEAK_HITLIST_ROUNDS = 2
LEAK_TGA_SEEDS = 3
LEAK_TGA_CANDIDATES = 6
LEAK_RDNS_NAMES = 12
LEAK_RESIDENTIAL_SUBNETS = 12
LEAK_AMPLIFICATION_SUBNETS = 10
LEAK_SEED = 7


def leak_scenario(network: Network, scheduler: EventScheduler,
                  rdns: ReverseDns, prefix48: int, *,
                  sources: Dict[str, Sequence[int]],
                  start: float = 10 * MINUTE,
                  population: Optional[ScannerPopulation] = None
                  ) -> ScannerPopulation:
    """The standard five-strategy population aimed at a telescope /48.

    Targets "leak" into the bait prefix the way real telescope prefixes
    end up in public hitlists and rDNS zones: each strategy draws from
    a disjoint subnet-index range (`*_SUBNET_BASE`), so subnet locality,
    IID structure, revisit behaviour and PTR coverage separate cleanly.
    ``sources`` maps each strategy name to that actor's scanner
    addresses — give every actor a distinct source /48 so clustering
    keeps the ground truth separable.  The population's shape is the
    ``LEAK_*`` constants.
    """
    prefix48 = addrmod.prefix(prefix48, 48)
    rng = random.Random(LEAK_SEED)
    population = population or ScannerPopulation(network, scheduler)

    def high_iid() -> int:
        # Pseudo-random (SLAAC-privacy-shaped) IIDs, never low-range.
        return rng.randrange(1 << 32, 1 << 63)

    hitlist = [prefix48 + ((HITLIST_SUBNET_BASE + index) << 64) + high_iid()
               for index in range(LEAK_HITLIST_TARGETS)]
    population.add(HitlistSweepActor(
        network, scheduler, name="hitlist-sweeper",
        sources=sources["hitlist"], targets=hitlist,
        rounds=LEAK_HITLIST_ROUNDS, seed=LEAK_SEED + 1, start=start))

    seeds = [prefix48 + ((TGA_SUBNET_BASE + index) << 64) + high_iid()
             for index in range(LEAK_TGA_SEEDS)]
    population.add(TgaActor(
        network, scheduler, name="tga-generator",
        sources=sources["tga"], seeds=seeds,
        candidates_per_seed=LEAK_TGA_CANDIDATES,
        seed=LEAK_SEED + 2, start=start))

    for index in range(LEAK_RDNS_NAMES):
        address = (prefix48 + ((RDNS_SUBNET_BASE + index // 4) << 64)
                   + high_iid())
        word = RDNS_DICTIONARY[index % len(RDNS_DICTIONARY)]
        rdns.register(address, f"{word}{index}.leak.example.net")
    population.add(RdnsWalkActor(
        network, scheduler, name="rdns-walker",
        sources=sources["rdns"], rdns=rdns, zone48=prefix48,
        seed=LEAK_SEED + 3, start=start))

    population.add(ResidentialSweepActor(
        network, scheduler, name="residential-sweeper",
        sources=sources["residential"], base48=prefix48,
        subnet_start=RESIDENTIAL_SUBNET_BASE,
        subnet_count=LEAK_RESIDENTIAL_SUBNETS,
        seed=LEAK_SEED + 4, start=start))

    population.add(AmplificationReconActor(
        network, scheduler, name="amplification-recon",
        sources=sources["amplification"], base48=prefix48,
        subnet_start=AMPLIFICATION_SUBNET_BASE,
        subnet_count=LEAK_AMPLIFICATION_SUBNETS,
        seed=LEAK_SEED + 5, start=start))
    return population
