"""A TUM-IPv6-Hitlist-like target list over the simulated world.

The real hitlist aggregates DNS-derived names (certificate transparency,
zone files, reverse DNS), traceroute-derived router addresses, and
target-generation-algorithm (TGA) extrapolations — a mix known to
overrepresent servers and infrastructure and to underrepresent end-user
devices (the paper's core motivation).

The builder reproduces that bias structurally:

* every DNS-named device contributes its *current* address (DNS entries
  resolve fresh at build time);
* hyperscaler/CDN front addresses enter en masse (the real list's
  Cloudfront bulge);
* TGA extrapolation adds structured-IID neighbours of every seed, most
  of which are dead — this is what makes the *full* list much larger
  and far less responsive than the *public* (responsive-only) variant;
* NTP-only end-user devices (privacy addresses, rotating prefixes) are
  structurally invisible to all three methods.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set

from repro.analysis.aliases import filter_aliased
from repro.ipv6 import address as addrmod
from repro.world.population import World


@dataclass(frozen=True)
class Hitlist:
    """The two published variants of the target list."""

    full: FrozenSet[int]
    public: FrozenSet[int]
    built_at: float
    #: /64 prefixes the dealiasing pass flagged (published separately,
    #: as the TUM project does).
    aliased_prefixes: FrozenSet[int] = frozenset()

    @property
    def full_size(self) -> int:
        return len(self.full)


#: Probability a DNS-named device actually appears.
DNS_INCLUSION_RATE = 0.96
#: TGA neighbours generated per seed address.
TGA_PER_SEED = 5
#: Share of TGA neighbours that use small structured IIDs (the rest
#: perturb the seed's own IID).
TGA_STRUCTURED_SHARE = 0.7
#: Traceroute-derived router interface addresses per AS.  These give
#: the hitlist its very broad AS coverage (the real list contains most
#: routed ASes) without being application-layer responsive.
ROUTERS_PER_AS = 25
#: Probability that a dynamic-DNS record is resolved from a lagging
#: cache, yielding the device's *previous* (dead) address.
DDNS_STALENESS = 0.08


@dataclass
class HitlistConfig:
    """The synthetic hitlist's seed; its composition is set by the
    module constants above, modelled on the TUM hitlist's."""

    seed: int = 0x711


def build_hitlist(world: World, config: Optional[HitlistConfig] = None) -> Hitlist:
    """Compile the hitlist from the world's *current* state.

    ``public`` is the subset of entries that are live, reachable hosts
    at build time (the real public list keeps only responsive
    addresses); ``full`` additionally carries the TGA extrapolations
    and stale/parked entries.
    """
    config = config or HitlistConfig()
    rng = random.Random(config.seed)
    full: Set[int] = set()
    seeds: List[int] = []

    # DNS-fed entries resolve through the zone at build time; a slice
    # of dynamic-DNS names comes out of lagging caches and points at
    # the device's previous, now-dead address.
    for record in world.dns:
        if rng.random() >= DNS_INCLUSION_RATE:
            continue
        if record.previous is not None and \
                rng.random() < DDNS_STALENESS:
            address = world.dns.resolve_stale(record.name)
        else:
            address = world.dns.resolve(record.name)
        if address is None:
            continue
        full.add(address)
        seeds.append(address)

    for device in world.devices_of_type("cdn_front"):
        full.add(device.address)
        seeds.append(device.address)

    # Traceroute-like probing surfaces router interfaces in essentially
    # every routed AS — low, structured IIDs near the top of each
    # allocation (which is also where premises /48s live, producing the
    # /48 overlap with NTP-sourced data the paper reports).
    for system in world.asdb.systems:
        blocks = world.asdb.blocks_of(system.number)
        for index in range(ROUTERS_PER_AS):
            block = blocks[index % len(blocks)]
            net48 = rng.randrange(0, 256) << 80
            net64 = rng.randrange(0, 16) << 64
            full.add(block + net48 + net64 + rng.randrange(1, 0x100))

    # TGA extrapolation: bias towards low/structured IIDs near seeds.
    for seed_address in seeds:
        prefix64 = addrmod.prefix(seed_address, 64)
        for _ in range(TGA_PER_SEED):
            if rng.random() < TGA_STRUCTURED_SHARE:
                iid = rng.randrange(1, 0x2000)
            else:
                iid = addrmod.iid(seed_address) ^ rng.randrange(1, 0x100)
            full.add(addrmod.with_iid(prefix64, iid))

    responsive = {
        value for value in full
        if (host := world.network.host(value)) is not None and host.reachable
    }
    # Dealiasing (Gasser et al.): aliased /64s would otherwise flood the
    # responsive list with pseudo-hosts.  Probed with real connections
    # from the list-builder's own vantage point.
    prober = addrmod.parse("2001:500:aa::1")
    world.network.add_host(prober)
    alias_report = filter_aliased(world.network, prober, responsive,
                                  rng=random.Random(config.seed ^ 0xA11A))
    return Hitlist(
        full=frozenset(full),
        public=alias_report.kept,
        built_at=world.clock.now(),
        aliased_prefixes=alias_report.aliased_prefixes,
    )
