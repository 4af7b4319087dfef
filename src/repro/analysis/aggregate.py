"""Network/AS/country-aggregated scan views (Appendix C, Table 5).

Counts responsive endpoints per protocol at every aggregation level
the paper reports: addresses, /32–/64 networks, origin ASes, and
countries.  The same machinery backs Table 6 (device groups by
network) and Figures 5–6 (security by network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from repro.ipv6 import address as addrmod
from repro.scan.result import PROTOCOLS, ScanResults
from repro.world.asdb import AsDatabase

#: Aggregation rows of Table 5.
LEVELS = ("addrs", "/32", "/48", "/56", "/64", "ASes", "countries")

_PREFIX_LEVELS = {"/32": 32, "/48": 48, "/56": 56, "/64": 64}

#: Network lengths of Table 6's columns.
NETWORK_LEVELS = (48, 56, 64)


@dataclass(frozen=True)
class ProtocolAggregate:
    """One column of Table 5 (a protocol within one dataset)."""

    protocol: str
    counts: Mapping[str, int]

    def __getitem__(self, level: str) -> int:
        return self.counts[level]


def aggregate_protocol(results: ScanResults, protocol: str,
                       asdb: AsDatabase) -> ProtocolAggregate:
    """Count one protocol's responsive endpoints at every level."""
    addresses = results.responsive_addresses(protocol)
    counts: Dict[str, int] = {"addrs": len(addresses)}
    for label, bits in _PREFIX_LEVELS.items():
        counts[label] = len(addrmod.distinct_networks(addresses, bits))
    asns = set()
    countries = set()
    for value in addresses:
        system = asdb.lookup(value)
        if system is not None:
            asns.add(system.number)
            countries.add(system.country)
    counts["ASes"] = len(asns)
    counts["countries"] = len(countries)
    return ProtocolAggregate(protocol=protocol, counts=counts)


def table5(results: ScanResults,
           asdb: AsDatabase) -> Dict[str, ProtocolAggregate]:
    """The full Table 5 block for one dataset."""
    return {protocol: aggregate_protocol(results, protocol, asdb)
            for protocol in PROTOCOLS}


def gap_factor(ntp: ProtocolAggregate, hitlist: ProtocolAggregate,
               level: str) -> float:
    """hitlist/NTP ratio at one level (the paper's "gap lowers when
    aggregating" observation: compare the factor at addrs vs /56)."""
    ntp_count = ntp[level]
    if ntp_count == 0:
        return float("inf") if hitlist[level] else 1.0
    return hitlist[level] / ntp_count


# -- Table 6: groups counted by networks -----------------------------------

def count_by_networks(addresses: Iterable[int]) -> Dict[str, int]:
    """IPs plus distinct-network counts for one group of addresses."""
    materialized = set(addresses)
    counts = {"IPs": len(materialized)}
    for bits in NETWORK_LEVELS:
        counts[f"/{bits}"] = len(addrmod.distinct_networks(materialized, bits))
    return counts


def group_network_table(groups: Mapping[str, Iterable[int]]) -> Dict[str, Dict[str, int]]:
    """Table 6: ``{group: {"IPs": n, "/48": n, "/56": n, "/64": n}}``."""
    return {name: count_by_networks(addresses)
            for name, addresses in groups.items()}


def http_title_group_addresses(results: ScanResults) -> Dict[str, set]:
    """Group responsive HTTP(S) addresses by clustered page title.

    Unlike Table 3 this counts *addresses* (plain HTTP included), which
    is Table 6's view; titles cluster with the same Levenshtein rule.
    """
    from repro.analysis.levenshtein import TitleClusterer

    clusterer = TitleClusterer()
    groups: Dict[str, set] = {}
    for grab in results.merged_http():
        if not grab.ok or grab.status != 200 or grab.title is None:
            continue
        group = clusterer.add(grab.title)
        groups.setdefault(group.representative, set()).add(grab.address)
    return groups


def ssh_os_addresses(results: ScanResults) -> Dict[str, set]:
    """Group responsive SSH addresses by banner OS (Table 6, SSH part)."""
    from repro.proto.ssh import SshIdentification, extract_os

    groups: Dict[str, set] = {}
    for grab in results.ssh:
        if not grab.ok or grab.banner is None:
            continue
        identification = SshIdentification(
            protocol="2.0", software=grab.software or "", comment=grab.comment,
        )
        groups.setdefault(extract_os(identification), set()).add(grab.address)
    return groups


def coap_group_addresses(results: ScanResults) -> Dict[str, set]:
    """Group responsive CoAP addresses by resource bucket (Table 6)."""
    from repro.analysis.devicetypes import coap_resource_group

    groups: Dict[str, set] = {}
    for grab in results.coap:
        if not grab.ok:
            continue
        groups.setdefault(coap_resource_group(grab.resources),
                          set()).add(grab.address)
    return groups
