"""Host deduplication across dynamic addresses (Section 6 + future work).

The paper deduplicates hosts by TLS certificate / SSH host key and
notes two complementary signals it leaves for future work:

* **embedded MAC addresses** — EUI-64 interface identifiers survive
  prefix rotation, so all addresses carrying one (universally
  administered) MAC belong to one interface;
* **stable non-EUI-64 IIDs** — a manually configured or stable-privacy
  identifier that reappears under several prefixes very likely moved
  with its host (the paper's FRITZ!Box population does exactly this).

This module implements that fingerprinting over a collected dataset:
it partitions addresses into *host observations* and derives bounds on
the number of distinct hosts behind a dataset, tightening the paper's
"hard lower bound" from certificates/keys.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.ipv6 import address as addrmod
from repro.ipv6 import eui64
from repro.ipv6.iid import classify_iid

#: IID classes considered stable enough to track across prefixes.
_STABLE_CLASSES = frozenset({"zero", "low-byte", "low-two-bytes",
                             "low-entropy", "medium-entropy"})

#: Minimum prefix sightings before a bare stable IID counts as one host
#: (guards against coincidental small IIDs like ::1 appearing in many
#: unrelated networks).
_MIN_PREFIXES_FOR_STABLE_IID = 1

#: Stable IIDs too generic to identify a host (every network has a ::1).
_GENERIC_IID_MAX = 0xFF


@dataclass(frozen=True)
class HostCluster:
    """One inferred host: its identity signal and its addresses."""

    kind: str  # "mac" | "stable-iid" | "singleton"
    identity: int
    addresses: Tuple[int, ...]

    @property
    def address_count(self) -> int:
        return len(self.addresses)

    @property
    def prefix_count(self) -> int:
        return len({addrmod.prefix(a, 64) for a in self.addresses})


@dataclass(frozen=True)
class DedupReport:
    """Bounds on the number of distinct hosts in an address set."""

    total_addresses: int
    clusters: Tuple[HostCluster, ...]
    #: Addresses with rotating (privacy) identifiers: each is at most
    #: one sighting of *some* host, indistinguishable from the others.
    unattributable: int

    @property
    def identified_hosts(self) -> int:
        """Hosts pinned down by a MAC or stable IID."""
        return sum(1 for cluster in self.clusters
                   if cluster.kind != "singleton")

    @property
    def lower_bound(self) -> int:
        """At least this many hosts: one per cluster, and the
        unattributable addresses could all be one very chatty host."""
        return len(self.clusters) + (1 if self.unattributable else 0)

    @property
    def upper_bound(self) -> int:
        """At most this many: every unattributable address a new host."""
        return len(self.clusters) + self.unattributable

    @property
    def deduplication_factor(self) -> float:
        """How much the MAC/IID signal shrinks the raw address count."""
        if self.total_addresses == 0:
            return 1.0
        return self.total_addresses / max(1, self.upper_bound)


def dedup_addresses(addresses: Iterable[int]) -> DedupReport:
    """Partition an address set into inferred hosts.

    Precedence: an embedded universally-administered MAC wins; failing
    that, a non-generic stable IID seen under one or more prefixes;
    everything else (privacy identifiers) is unattributable.
    """
    by_mac: Dict[int, List[int]] = defaultdict(list)
    by_stable_iid: Dict[int, List[int]] = defaultdict(list)
    unattributable = 0
    total = 0
    for value in addresses:
        total += 1
        mac = eui64.extract_mac(value)
        if mac is not None and eui64.is_universal(mac) \
                and not eui64.is_multicast(mac):
            by_mac[mac].append(value)
            continue
        identifier = addrmod.iid(value)
        if identifier > _GENERIC_IID_MAX and \
                classify_iid(identifier) in _STABLE_CLASSES:
            by_stable_iid[identifier].append(value)
            continue
        unattributable += 1

    clusters: List[HostCluster] = []
    for mac, members in by_mac.items():
        clusters.append(HostCluster(kind="mac", identity=mac,
                                    addresses=tuple(sorted(members))))
    for identifier, members in by_stable_iid.items():
        prefixes = {addrmod.prefix(a, 64) for a in members}
        if len(prefixes) >= _MIN_PREFIXES_FOR_STABLE_IID:
            clusters.append(HostCluster(kind="stable-iid",
                                        identity=identifier,
                                        addresses=tuple(sorted(members))))
        else:  # pragma: no cover - unreachable with threshold 1
            unattributable += len(members)
    clusters.sort(key=lambda cluster: -cluster.address_count)
    return DedupReport(total_addresses=total, clusters=tuple(clusters),
                       unattributable=unattributable)
