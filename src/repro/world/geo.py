"""Country registry and client-demand weights.

Plays the role of MaxMind's GeoLite2 in the paper (country counts in
Table 5) and of the per-country client populations that determine how
much NTP traffic each pool zone emits (Table 7's India ≫ Netherlands
spread follows from these weights and zone competition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Country:
    """One country zone of the simulated world."""

    code: str
    name: str
    continent: str
    #: Relative volume of NTP-speaking IPv6 clients.
    client_weight: float
    #: How many *other* pool servers already serve the zone; our server
    #: competes against these for the zone's demand.  Low competition +
    #: high weight is exactly the paper's placement criterion.
    competing_servers: int


#: The paper's 11 deployment countries, plus a tail of non-deployment
#: countries that only contribute via the global zone.  Weights are
#: loosely proportional to routed-IPv6 eyeball populations; competition
#: levels reflect the real pool's very uneven server density.
COUNTRIES: Tuple[Country, ...] = (
    Country("IN", "India", "AS", client_weight=32.0, competing_servers=1),
    Country("BR", "Brazil", "SA", client_weight=9.0, competing_servers=3),
    Country("JP", "Japan", "AS", client_weight=6.5, competing_servers=8),
    Country("ZA", "South Africa", "AF", client_weight=3.2, competing_servers=7),
    Country("ES", "Spain", "EU", client_weight=3.4, competing_servers=9),
    Country("GB", "United Kingdom", "EU", client_weight=5.0, competing_servers=14),
    Country("DE", "Germany", "EU", client_weight=6.0, competing_servers=21),
    Country("US", "United States", "NA", client_weight=8.0, competing_servers=30),
    Country("PL", "Poland", "EU", client_weight=2.6, competing_servers=12),
    Country("AU", "Australia", "OC", client_weight=1.9, competing_servers=17),
    Country("NL", "the Netherlands", "EU", client_weight=1.6, competing_servers=16),
    # Non-deployment countries: their clients reach us only via the
    # global zone fallback, keeping the country column of Table 5 broad.
    Country("FR", "France", "EU", client_weight=4.5, competing_servers=20),
    Country("IT", "Italy", "EU", client_weight=2.8, competing_servers=10),
    Country("CN", "China", "AS", client_weight=7.0, competing_servers=6),
    Country("MX", "Mexico", "NA", client_weight=2.2, competing_servers=4),
    Country("ID", "Indonesia", "AS", client_weight=2.4, competing_servers=3),
    Country("CA", "Canada", "NA", client_weight=1.8, competing_servers=12),
    Country("SE", "Sweden", "EU", client_weight=1.1, competing_servers=11),
    Country("CH", "Switzerland", "EU", client_weight=0.9, competing_servers=13),
    Country("AR", "Argentina", "SA", client_weight=1.3, competing_servers=2),
    Country("KR", "South Korea", "AS", client_weight=2.1, competing_servers=5),
    Country("TH", "Thailand", "AS", client_weight=1.5, competing_servers=3),
    Country("VN", "Vietnam", "AS", client_weight=1.7, competing_servers=2),
    Country("EG", "Egypt", "AF", client_weight=1.0, competing_servers=1),
    Country("NG", "Nigeria", "AF", client_weight=0.8, competing_servers=1),
    Country("PH", "Philippines", "AS", client_weight=1.2, competing_servers=2),
)

#: Countries where the study deploys a capture server (paper Section 3.1).
DEPLOYMENT_COUNTRIES: Tuple[str, ...] = (
    "AU", "BR", "DE", "IN", "JP", "PL", "ZA", "ES", "NL", "GB", "US",
)


class GeoDatabase:
    """Country lookups (the GeoLite2 stand-in)."""

    def __init__(self) -> None:
        self._by_code: Dict[str, Country] = {c.code: c for c in COUNTRIES}

    def country(self, code: str) -> Country:
        return self._by_code[code]

    @property
    def codes(self) -> Tuple[str, ...]:
        return tuple(self._by_code)

    @property
    def countries(self) -> Tuple[Country, ...]:
        return tuple(self._by_code.values())

    def demand_weights(self) -> Dict[str, float]:
        """Per-country NTP client demand (zone traffic shares)."""
        return {code: c.client_weight for code, c in self._by_code.items()}


def default_geo() -> GeoDatabase:
    """The registry used throughout the reproduction."""
    return GeoDatabase()
