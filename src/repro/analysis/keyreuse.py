"""Secret-reuse analysis (Section 6, "Certificate and Key Reuse").

Measures how widely a single TLS certificate or SSH host key is shared
across addresses and ASes.  Following the paper: only keys appearing in
*more than two* ASes count as reused (allowing for dual-homed hosts),
and only HTTP status-200 responses are considered on the web side.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.metrics import current_registry
from repro.scan.result import ScanResults
from repro.world.asdb import AsDatabase

#: A key must span more than this many ASes to count as reused.
AS_THRESHOLD = 2


@dataclass(frozen=True)
class ReusedKey:
    """One reused secret and its blast radius."""

    fingerprint: bytes
    addresses: int
    ases: int


@dataclass(frozen=True)
class ReuseReport:
    """Section 6's reuse summary for one dataset."""

    label: str
    reused_keys: Tuple[ReusedKey, ...]

    @property
    def reused_key_count(self) -> int:
        return len(self.reused_keys)

    @property
    def total_reused_addresses(self) -> int:
        return sum(key.addresses for key in self.reused_keys)

    @property
    def most_used(self) -> Optional[ReusedKey]:
        """The key backing the most addresses."""
        if not self.reused_keys:
            return None
        return max(self.reused_keys, key=lambda key: key.addresses)

    @property
    def most_widespread(self) -> Optional[ReusedKey]:
        """The key spanning the most ASes."""
        if not self.reused_keys:
            return None
        return max(self.reused_keys, key=lambda key: key.ases)

    @property
    def addresses_per_key(self) -> float:
        if not self.reused_keys:
            return 0.0
        return self.total_reused_addresses / len(self.reused_keys)


def _collect_identities(results: ScanResults) -> Dict[bytes, Set[int]]:
    """fingerprint -> responsive addresses presenting it."""
    identities: Dict[bytes, Set[int]] = defaultdict(set)
    for grab in results.ssh:
        if grab.ok and grab.key_fingerprint is not None:
            identities[grab.key_fingerprint].add(grab.address)
    for grab in results.https:
        if not grab.ok or grab.status != 200:
            continue
        if grab.tls is not None and grab.tls.ok and grab.tls.fingerprint:
            identities[grab.tls.fingerprint].add(grab.address)
    for protocol in ("mqtts", "amqps"):
        for grab in results.grabs(protocol):
            if grab.ok and grab.tls is not None and grab.tls.ok \
                    and grab.tls.fingerprint:
                identities[grab.tls.fingerprint].add(grab.address)
    return identities


def analyze(label: str, results: ScanResults,
            asdb: AsDatabase) -> ReuseReport:
    """Find every secret shared across more than :data:`AS_THRESHOLD`
    ASes (one ``analysis_jobs_total`` on the current metrics registry)."""
    current_registry().counter("analysis_jobs_total").inc()
    reused: List[ReusedKey] = []
    for fingerprint, addresses in _collect_identities(results).items():
        asns = {asn for value in addresses
                if (asn := asdb.lookup_asn(value)) is not None}
        if len(asns) > AS_THRESHOLD:
            reused.append(ReusedKey(
                fingerprint=fingerprint,
                addresses=len(addresses),
                ases=len(asns),
            ))
    reused.sort(key=lambda key: -key.addresses)
    return ReuseReport(label=label, reused_keys=tuple(reused))
