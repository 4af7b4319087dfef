"""Address-structure analysis (Section 3.2.1, Figure 1).

Profiles an address set by interface-identifier class and reports the
share of addresses originating from "Cable/DSL/ISP"-classified ASes.
Together these are the paper's fingerprint separating end-user-heavy
data (NTP-sourced) from server-heavy data (hitlists): structured IIDs
indicate manual configuration; high-entropy IIDs indicate SLAAC privacy
extensions on client devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.ipv6 import iid as iidmod
from repro.ipv6.columnar import AddressColumn
from repro.world.asdb import EYEBALL, AsDatabase


@dataclass(frozen=True)
class StructureReport:
    """One dataset's bar in Figure 1."""

    label: str
    total: int
    class_shares: Mapping[str, float]
    eyeball_as_share: float

    @property
    def structured_share(self) -> float:
        return sum(self.class_shares.get(cls, 0.0)
                   for cls in iidmod.STRUCTURED_CLASSES)

    @property
    def high_entropy_share(self) -> float:
        return self.class_shares.get("high-entropy", 0.0)

    @property
    def eui64_share(self) -> float:
        return self.class_shares.get("eui64", 0.0)


def analyze(label: str, addresses: Iterable[int],
            asdb: AsDatabase) -> StructureReport:
    """Build the Figure 1 profile for one address set.

    The set is packed into an :class:`AddressColumn` once; both the IID
    classification and the AS-category share then run as columnar
    kernels (the category share groups by /32, the granularity of the
    AS registry) instead of per-address Python loops.
    """
    column = AddressColumn.coerce(addresses)
    profile = iidmod.profile(column)
    return StructureReport(
        label=label,
        total=profile.total,
        class_shares=profile.as_dict(),
        eyeball_as_share=asdb.category_share(column, EYEBALL),
    )
