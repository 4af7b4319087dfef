"""A simulator of the NTP Pool (pool.ntp.org).

The pool groups volunteer servers into country *zones* and hands each
resolving client a server from its own country zone when one exists,
falling back to the continent/global zone otherwise — the behaviour
documented by Moura et al. (2024) that the paper's server-placement
strategy exploits.  Within a zone, selection probability is proportional
to the operator-configured ``netspeed`` weight.

The simulator also runs the pool's *monitoring*: servers are probed with
real SNTP queries and are only eligible for DNS rotation while their
score is above the acceptance threshold, matching how real pool members
gain/lose traffic.

The pool caches each zone's *rotation* — its in-rotation servers, or
the global fallback, with their cumulative netspeed weights — and
clears the cache whenever registration, weights or monitor scores
change.  :meth:`NtpPool.resolve` is the one-lookup API; the collection
campaign, whose hot path is one lookup per client poll, draws from the
same rotations (:meth:`NtpPool.rotation`) in per-zone tables built once
per collection day.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.simnet import Network
from repro.ntp.client import NtpClient

#: Zone name used for clients whose country has no populated zone.
GLOBAL_ZONE = "@"

#: Monitor score below which a server is dropped from rotation.
SCORE_THRESHOLD = 10.0

#: Score bounds (the real pool caps at 20).
SCORE_MAX = 20.0
SCORE_MIN = -100.0


@dataclass
class PoolServer:
    """One pool member: address, zone, weight, and monitor state.

    Change a member only through :class:`NtpPool` (``deregister``,
    ``set_netspeed``, ``run_monitor``): the pool caches rotations built
    from these fields and clears the cache in those methods.
    """

    address: int
    zone: str
    netspeed: int = 1000
    score: float = SCORE_MAX
    advertised: bool = True
    operator: str = ""

    @property
    def in_rotation(self) -> bool:
        """Eligible for DNS responses right now."""
        return self.advertised and self.score >= SCORE_THRESHOLD


#: A zone's rotation: ``(servers, cum_weights, total, last)``, see
#: :meth:`NtpPool.rotation`.
Rotation = Tuple[List[PoolServer], List[int], int, int]


class NtpPool:
    """Zone registry + GeoDNS-style resolution + monitoring."""

    def __init__(self, network: Network, rng: Optional[random.Random] = None,
                 monitor_address: Optional[int] = None) -> None:
        self.network = network
        self._rng = rng or random.Random(0x9001)
        self._servers: Dict[int, PoolServer] = {}
        self._zones: Dict[str, List[PoolServer]] = {}
        #: zone → its rotation; see :meth:`rotation`.
        self._rotations: Dict[str, Rotation] = {}
        self._monitor_client: Optional[NtpClient] = None
        if monitor_address is not None:
            self._monitor_client = NtpClient(network, monitor_address)

    # -- registration --------------------------------------------------

    def register(self, address: int, zone: str, netspeed: int = 1000,
                 operator: str = "") -> PoolServer:
        """Add a server to a country zone (and implicitly the global zone)."""
        if address in self._servers:
            raise ValueError(f"server {address:#x} already registered")
        if netspeed <= 0:
            raise ValueError(f"netspeed must be positive, got {netspeed}")
        server = PoolServer(address=address, zone=zone, netspeed=netspeed,
                            operator=operator)
        self._servers[address] = server
        self._zones.setdefault(zone, []).append(server)
        self._rotations.clear()
        return server

    def deregister(self, address: int) -> None:
        """Stop advertising a server (it stays monitored but unresolvable).

        Mirrors the paper's ethics procedure of de-advertising servers
        weeks before shutdown rather than removing them abruptly.
        """
        server = self._servers.get(address)
        if server is None:
            raise KeyError(f"server {address:#x} not registered")
        server.advertised = False
        self._rotations.clear()

    def set_netspeed(self, address: int, netspeed: int) -> None:
        """Operator weight adjustment (the paper tunes this upward until
        the request rate approaches the scanning budget)."""
        if netspeed <= 0:
            raise ValueError(f"netspeed must be positive, got {netspeed}")
        self._servers[address].netspeed = netspeed
        self._rotations.clear()

    def server(self, address: int) -> PoolServer:
        return self._servers[address]

    @property
    def servers(self) -> tuple:
        return tuple(self._servers.values())

    def zone_servers(self, zone: str) -> List[PoolServer]:
        """The zone's in-rotation servers."""
        return [server for server in self._zones.get(zone, [])
                if server.in_rotation]

    # -- resolution -----------------------------------------------------

    def rotation(self, zone: str) -> Rotation:
        """The servers a client in ``zone`` is handed, with weights.

        ``(servers, cum_weights, total, last)``: the zone's in-rotation
        servers, or — when it has none — every in-rotation server of the
        pool (the global fallback), in registration order; their
        cumulative netspeeds; the netspeed total; and the last server's
        index, the ``hi`` bound of a weighted draw's bisect.  An empty
        rotation (nothing in rotation) has no servers, no weights, a
        total of 0 and ``last`` -1.  Cached per zone until the next
        ``register``, ``deregister``, ``set_netspeed`` or
        ``run_monitor``; callers must not mutate the lists, and a caller
        that keeps them across one of those calls keeps a stale
        rotation.
        """
        rotation = self._rotations.get(zone)
        if rotation is None:
            servers = self.zone_servers(zone) or [
                server for server in self._servers.values()
                if server.in_rotation]
            cum_weights = list(itertools.accumulate(
                server.netspeed for server in servers))
            rotation = (servers, cum_weights,
                        cum_weights[-1] if cum_weights else 0,
                        len(servers) - 1)
            self._rotations[zone] = rotation
        return rotation

    def resolve(self, country: str, rng: Optional[random.Random] = None) -> Optional[int]:
        """GeoDNS lookup: one server address for a client in ``country``.

        Selection is netspeed-weighted within the client's country zone;
        clients in empty zones fall back to the global rotation across
        every in-rotation server (advertised, with a monitor score of at
        least :data:`SCORE_THRESHOLD`).  A lookup that finds a server
        draws exactly one ``random()`` from ``rng`` (default: the
        pool's own) and bisects the cumulative weights of
        :meth:`rotation` with it, exactly as ``Random.choices`` does
        with ``cum_weights``, so the same draw picks the same server; a
        lookup that finds none draws nothing.  The collection campaign's
        day tables draw the same way, and are tested against this.
        """
        servers, cum_weights, total, last = self.rotation(country)
        if not servers:
            return None
        draw = (rng or self._rng).random() * total
        return servers[bisect_right(cum_weights, draw, 0, last)].address

    # -- monitoring -----------------------------------------------------

    def run_monitor(self) -> None:
        """Probe every registered server once and update scores.

        Healthy responses move the score toward :data:`SCORE_MAX`;
        failures subtract 5 points, dropping a dead server out of
        rotation after a couple of rounds — the real pool's dynamic.
        """
        if self._monitor_client is None:
            raise RuntimeError("pool constructed without a monitor address")
        for server in self._servers.values():
            result = self._monitor_client.query(server.address)
            if result is not None and result.stratum > 0:
                server.score = min(SCORE_MAX, server.score + 1.0)
            else:
                server.score = max(SCORE_MIN, server.score - 5.0)
        self._rotations.clear()


def weighted_request_rates(pool: NtpPool, zone_demand: Dict[str, float]) -> Dict[int, float]:
    """Expected request share per server given per-zone client demand.

    A closed-form companion to the event-driven simulation: each zone's
    demand is split by netspeed across the same rotation
    :meth:`NtpPool.resolve` samples from (:meth:`NtpPool.rotation`: the
    zone's own servers, or the global fallback for empty zones).  Used
    by tests to cross-check the emergent collection volumes.
    """
    rates: Dict[int, float] = {server.address: 0.0 for server in pool.servers}
    for zone, demand in zone_demand.items():
        members, _, total, _ = pool.rotation(zone)
        for server in members:
            rates[server.address] += demand * server.netspeed / total
    return rates
