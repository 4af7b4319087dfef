"""A minimal forward-DNS zone with dynamic-DNS semantics.

The TUM-style hitlist is DNS-fed: certificate-transparency logs, zone
files and reverse lookups yield *names*, which resolve to addresses at
list-build time.  For end-user devices those names are dynamic-DNS
records — and DDNS clients lag, so a fraction of resolutions return the
*previous* address of a churned host.  The zone keeps one level of
history to model exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional


@dataclass
class DnsRecord:
    """One AAAA record with its previous value (DDNS history)."""

    name: str
    address: int
    updated_at: float
    previous: Optional[int] = None


class DnsZone:
    """name → address registry with one-deep update history."""

    def __init__(self) -> None:
        self._records: Dict[str, DnsRecord] = {}

    def register(self, name: str, address: int) -> None:
        """Create a record; re-registering behaves like an update."""
        if not name:
            raise ValueError("DNS name must be non-empty")
        existing = self._records.get(name)
        if existing is not None:
            self.update(name, address)
            return
        self._records[name] = DnsRecord(name=name, address=address,
                                        updated_at=0.0)

    def update(self, name: str, address: int, now: float = 0.0) -> None:
        """Dynamic-DNS update: the old address becomes history."""
        record = self._records.get(name)
        if record is None:
            raise KeyError(f"no record named {name!r}")
        if address == record.address:
            return
        record.previous = record.address
        record.address = address
        record.updated_at = now

    def resolve(self, name: str) -> Optional[int]:
        """Current address of a name, or None (NXDOMAIN)."""
        record = self._records.get(name)
        return record.address if record else None

    def resolve_stale(self, name: str) -> Optional[int]:
        """The *previous* address (what a lagging cache would return)."""
        record = self._records.get(name)
        if record is None:
            return None
        return record.previous if record.previous is not None \
            else record.address

    def record(self, name: str) -> DnsRecord:
        return self._records[name]

    def __iter__(self) -> Iterator[DnsRecord]:
        return iter(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records
