"""Autonomous-system registry with PeeringDB-style categories.

Gives every simulated prefix an origin AS, every AS a country and a
business category.  The paper uses exactly two things from the real
counterparts (PeeringDB, RIPE RIS, RIR delegation files): the
address→AS mapping for counting ASes/overlaps (Table 1) and the
"Cable/DSL/ISP" category share (Figure 1, right).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.ipv6 import address as addr
from repro.ipv6.columnar import AddressColumn

#: PeeringDB-inspired network categories.
CATEGORIES = (
    "Cable/DSL/ISP",
    "NSP",
    "Content",
    "Enterprise",
    "Educational/Research",
    "Non-Profit",
)

#: Category mix per AS *kind* used by the world generator.
EYEBALL = "Cable/DSL/ISP"
CLOUD = "Content"


@dataclass(frozen=True)
class AutonomousSystem:
    """One AS: number, descriptive name, category, home country."""

    number: int
    name: str
    category: str
    country: str


class AsDatabase:
    """Prefix-indexed AS registry.

    Allocation hands each AS a set of /32 blocks inside the simulated
    global unicast space ``2000::/12``; lookups shift an address down to
    its /32 and consult a dict, which is O(1) and fast enough for tens
    of millions of lookups.
    """

    #: All allocations live under this prefix.
    GLOBAL_UNICAST = addr.parse("2000::")

    def __init__(self) -> None:
        self._systems: Dict[int, AutonomousSystem] = {}
        self._prefix_owner: Dict[int, int] = {}  # /32 key -> ASN
        self._allocations: Dict[int, List[int]] = {}  # ASN -> [/32 keys]
        self._next_slot = 1

    # -- registration ---------------------------------------------------

    def register(self, system: AutonomousSystem, block_count: int = 1) -> None:
        """Register an AS and allocate ``block_count`` /32 blocks to it."""
        if system.number in self._systems:
            raise ValueError(f"AS{system.number} already registered")
        if block_count <= 0:
            raise ValueError("block_count must be positive")
        self._systems[system.number] = system
        slots = []
        for _ in range(block_count):
            key = (self.GLOBAL_UNICAST >> 96) + self._next_slot
            self._next_slot += 1
            self._prefix_owner[key] = system.number
            slots.append(key)
        self._allocations[system.number] = slots

    # -- lookups ----------------------------------------------------------

    def lookup(self, address_value: int) -> Optional[AutonomousSystem]:
        """Origin AS of an address (None when unrouted)."""
        asn = self._prefix_owner.get(address_value >> 96)
        return self._systems.get(asn) if asn is not None else None

    def lookup_asn(self, address_value: int) -> Optional[int]:
        return self._prefix_owner.get(address_value >> 96)

    def country_of(self, address_value: int) -> Optional[str]:
        """Country of an address, via its origin AS."""
        system = self.lookup(address_value)
        return system.country if system else None

    def system(self, asn: int) -> AutonomousSystem:
        return self._systems[asn]

    @property
    def systems(self) -> Tuple[AutonomousSystem, ...]:
        return tuple(self._systems.values())

    def blocks_of(self, asn: int) -> List[int]:
        """The /32 base addresses allocated to an AS."""
        return [key << 96 for key in self._allocations[asn]]

    def prefix_for(self, asn: int, index: int, length: int = 48) -> int:
        """Deterministic ``index``-th /length prefix inside the AS's space.

        Spreads prefixes across the AS's /32 blocks round-robin, then
        linearly within a block.
        """
        blocks = self._allocations[asn]
        if not blocks:
            raise KeyError(f"AS{asn} has no allocations")
        block_key = blocks[index % len(blocks)]
        within = index // len(blocks)
        capacity = 1 << (length - 32)
        if within >= capacity:
            raise ValueError(f"AS{asn} /32 exhausted at /{length} index {index}")
        return (block_key << 96) + (within << (128 - length))

    # -- aggregate views --------------------------------------------------
    #
    # Allocations are /32-granular, so every per-address AS property is
    # constant within a /32.  These views take addresses bucketed by /32
    # (a packed AddressColumn, or per-/32 counts) and resolve one lookup
    # per *distinct* network instead of one per address — exactly equal
    # counts, since a per-address lookup only ever consults
    # ``value >> 96``.

    def category_share(self, addresses: AddressColumn, category: str) -> float:
        """Share of addresses whose origin AS has ``category``.

        Unrouted addresses count toward the denominator, mirroring how
        the paper normalizes by all collected addresses.
        """
        total = len(addresses)
        matching = 0
        for key, count in addresses.network_key_counts(32).items():
            asn = self._prefix_owner.get(key)
            if asn is not None and self._systems[asn].category == category:
                matching += count
        return matching / total if total else 0.0

    def as_counts(self, per32: Mapping[int, int]) -> Dict[int, int]:
        """``{asn: n addresses}`` from per-/32 address counts (``{address
        >> 96: n}``), routed addresses only."""
        per_as: Dict[int, int] = {}
        owners = self._prefix_owner
        for key, count in per32.items():
            asn = owners.get(key)
            if asn is not None:
                per_as[asn] = per_as.get(asn, 0) + count
        return per_as


def _eyeball_name(country: str, index: int) -> str:
    return f"{country} Broadband-{index}"


def build_asdb(geo_codes: Iterable[str], *, eyeballs_per_country: int = 3,
               hosting_count: int = 12, cloud_count: int = 3,
               education_count: int = 4, nsp_count: int = 6,
               rng: Optional[random.Random] = None,
               base_asn: int = 64500) -> AsDatabase:
    """Construct the standard AS layout for a world.

    Per country: a handful of eyeball ISPs (Cable/DSL/ISP).  Globally:
    hosting/content providers, hyperscale clouds (with many /32s —
    where CDN fronts live), research networks and transit NSPs.
    """
    rng = rng or random.Random(0xA5DB)
    db = AsDatabase()
    asn = base_asn
    codes = list(geo_codes)
    for country in codes:
        for index in range(eyeballs_per_country):
            db.register(AutonomousSystem(
                number=asn, name=_eyeball_name(country, index + 1),
                category=EYEBALL, country=country,
            ), block_count=rng.randint(1, 2))
            asn += 1
    for index in range(hosting_count):
        db.register(AutonomousSystem(
            number=asn, name=f"SimHost-{index + 1}",
            category="Content", country=rng.choice(codes),
        ), block_count=1)
        asn += 1
    for index in range(cloud_count):
        db.register(AutonomousSystem(
            number=asn, name=f"HyperCloud-{index + 1}",
            category="Content", country="US",
        ), block_count=4)
        asn += 1
    for index in range(education_count):
        db.register(AutonomousSystem(
            number=asn, name=f"SimResearchNet-{index + 1}",
            category="Educational/Research", country=rng.choice(codes),
        ), block_count=1)
        asn += 1
    for index in range(nsp_count):
        db.register(AutonomousSystem(
            number=asn, name=f"SimTransit-{index + 1}",
            category="NSP", country=rng.choice(codes),
        ), block_count=1)
        asn += 1
    return db
