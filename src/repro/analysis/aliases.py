"""Aliased-prefix detection (the TUM hitlist's dealiasing step).

Some /64s answer on *every* address — CDN edges, load balancers,
firewall tarpits.  Left unfiltered they flood responsive-address lists
with pseudo-hosts, which is why the TUM hitlist detects and publishes
aliased prefixes separately (Gasser et al., IMC'18).

Detection follows their approach: probe several pseudo-random interface
identifiers inside a candidate /64; if every probe answers, the prefix
is aliased with overwhelming probability (a real subnet with a handful
of hosts would need an absurd coincidence to cover all random picks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Set

from repro.ipv6 import address as addrmod
from repro.ipv6.columnar import AddressColumn
from repro.net.simnet import Network

#: Random probes per candidate /64.
PROBES = 3

#: Fewest addresses a /64 must hold to be probed at all: single-address
#: subnets cannot inflate a list, and probing every /64 would itself be
#: a scan campaign.
MIN_CLUSTER = 2

#: TCP port used for detection probes (HTTP answers everywhere relevant).
PROBE_PORT = 80


def is_aliased(network: Network, source: int, prefix64: int, *,
               rng: Optional[random.Random] = None) -> bool:
    """Probe :data:`PROBES` random addresses of a /64; aliased iff all
    answer."""
    if PROBES <= 0:
        raise ValueError(f"probes must be positive, got {PROBES}")
    chooser = rng or random.Random(prefix64 & 0xFFFFFFFF)
    base = addrmod.prefix(prefix64, 64)
    for _ in range(PROBES):
        iid = chooser.getrandbits(64) | 1  # never the base address
        stream = network.tcp_connect(source, addrmod.with_iid(base, iid),
                                     PROBE_PORT)
        if stream is None:
            return False
        stream.close()
    return True


@dataclass(frozen=True)
class AliasReport:
    """Outcome of dealiasing an address set."""

    kept: frozenset
    aliased_prefixes: frozenset  # /64 base addresses
    removed: int


def filter_aliased(network: Network, source: int,
                   addresses: Iterable[int], *,
                   rng: Optional[random.Random] = None) -> AliasReport:
    """Remove addresses living inside aliased /64s.

    Only /64s holding at least :data:`MIN_CLUSTER` addresses are tested.
    """
    column = AddressColumn.coerce(addresses)
    # Columnar /64 bucketing replaces the per-address grouping dict.
    # First-occurrence order is preserved so a caller-supplied shared
    # ``rng`` draws the same probe sequence per prefix as the seed-era
    # grouping loop did.
    aliased: Set[int] = set()
    for key, members in column.network_key_counts_ordered(64):
        if members < MIN_CLUSTER:
            continue
        prefix64 = key << 64
        if is_aliased(network, source, prefix64, rng=rng):
            aliased.add(prefix64)
    aliased_keys = {prefix64 >> 64 for prefix64 in aliased}
    kept = frozenset(value for value in column
                     if value >> 64 not in aliased_keys)
    return AliasReport(
        kept=kept,
        aliased_prefixes=frozenset(aliased),
        removed=len(column) - len(kept),
    )
