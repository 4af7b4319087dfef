"""A minimal reverse-DNS registry.

Good Internet citizenship (paper Appendix A.2.2) means scanners
identify themselves: research scanners publish PTR records like
``research-scanner-1.university.example`` and host an explanation page.
Section 5 uses exactly this signal to tell the overt research actor
from the covert one (which publishes nothing).

The registry is deliberately simple — name lookups by exact address —
because that is all both the ethics setup and the detector consume.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class ReverseDns:
    """address → PTR name mappings."""

    def __init__(self) -> None:
        self._records: Dict[int, str] = {}

    def register(self, address: int, name: str) -> None:
        """Publish a PTR record (overwrites an existing one)."""
        if not name:
            raise ValueError("PTR name must be non-empty")
        self._records[address] = name

    def register_range(self, addresses: Iterable[int], pattern: str) -> None:
        """Publish records for many addresses; ``{index}`` interpolates."""
        for index, address in enumerate(addresses):
            self.register(address, pattern.format(index=index))

    def lookup(self, address: int) -> Optional[str]:
        """The PTR name of an address, or None (NXDOMAIN)."""
        return self._records.get(address)

    def entries(self) -> List[tuple]:
        """Every ``(address, name)`` record, address-ascending.

        The zone-walk view: rDNS-walking scanners enumerate a zone the
        way AXFR/NSEC walking does in the wild, and deterministic order
        keeps their probe plans reproducible.
        """
        return sorted(self._records.items())

    def addresses_of(self, name: str) -> List[int]:
        """Every address publishing ``name`` (duplicate-identity check).

        Real PTR records are address-keyed, so the same name *can* be
        registered on many addresses; callers that require a unique
        identity (the study scanner) use this to assert it.
        """
        return [address for address, ptr in self._records.items()
                if ptr == name]

    def __len__(self) -> int:
        return len(self._records)
