"""The NTP-sourcing telescope (Section 5 methodology).

The telescope continuously queries pool servers, using a **distinct,
never-before-used source address per query** inside a dedicated bait
prefix.  Any inbound connection attempt on a bait address can then be
attributed to exactly one NTP server — the only place that address was
ever revealed.  A guard band of neighbouring, never-used addresses is
monitored for scattering, separating NTP-sourced scans from brute-force
or random IPv6 scanning that happened to wander into the prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ipv6 import address as addrmod
from repro.net.clock import DAY, EventScheduler
from repro.net.packet import PacketRecord, Transport
from repro.net.simnet import Network
from repro.ntp.client import NtpClient
from repro.ntp.pool import NtpPool
from repro.ntp.server import NTP_PORT

#: The bait /48 every telescope queries from.
BAIT_PREFIX48 = addrmod.parse("2001:6d0:babe::")


@dataclass(frozen=True)
class BaitRecord:
    """One bait address and the single server it was revealed to."""

    address: int
    server: int
    query_time: float
    answered: bool


@dataclass(frozen=True)
class InboundEvent:
    """One unsolicited inbound packet observed inside the bait prefix."""

    time: float
    src: int
    dst: int
    dst_port: int
    transport: str
    #: None when the destination was never used for a query (scatter).
    bait: Optional[BaitRecord] = None


class Telescope:
    """Owns a bait /48, queries servers, and records inbound traffic."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.prefix48 = BAIT_PREFIX48
        self._iid_counter = itertools.count(0x1000)
        self._baits: Dict[int, BaitRecord] = {}
        self.events: List[InboundEvent] = []
        network.add_tap(self._tap)

    # -- bait management --------------------------------------------------

    def _fresh_bait(self) -> int:
        """Allocate a never-used address: fresh /64 within the bait /48."""
        index = next(self._iid_counter)
        return self.prefix48 + (index << 64) + 0x42

    def query(self, server: int) -> BaitRecord:
        """Query one pool server from a fresh bait address."""
        bait = self._fresh_bait()
        client = NtpClient(self.network, bait)
        result = client.query(server)
        record = BaitRecord(
            address=bait, server=server,
            query_time=self.network.clock.now(),
            answered=result is not None,
        )
        self._baits[bait] = record
        return record

    def sweep(self, pool: NtpPool) -> List[BaitRecord]:
        """Query every registered pool server once (one bait each)."""
        return [self.query(server.address) for server in pool.servers]

    def watch(self, pool: NtpPool, scheduler: EventScheduler, *,
              sweep_days: int, settle_days: int) -> None:
        """Sweep ``pool`` daily for ``sweep_days``, running whatever the
        scheduler holds in between, then ``settle_days`` more so slow
        scanners reach their baits."""
        for _ in range(sweep_days):
            self.sweep(pool)
            scheduler.run_until(scheduler.clock.now() + DAY)
        scheduler.run_until(scheduler.clock.now() + settle_days * DAY)

    @property
    def baits(self) -> Tuple[BaitRecord, ...]:
        return tuple(self._baits.values())

    def response_rate(self) -> float:
        """Share of queries answered (the paper saw ~86 %)."""
        if not self._baits:
            return 0.0
        answered = sum(1 for record in self._baits.values() if record.answered)
        return answered / len(self._baits)

    # -- capture -----------------------------------------------------------

    def _in_prefix(self, address: int) -> bool:
        return addrmod.prefix(address, 48) == self.prefix48

    def _tap(self, record: PacketRecord) -> None:
        if not self._in_prefix(record.dst):
            return
        if record.transport is Transport.UDP and record.src_port == NTP_PORT:
            return  # our own query's NTP response
        if not (record.syn or record.transport is Transport.UDP):
            return  # only connection attempts / datagrams, not stream data
        bait = self._baits.get(record.dst)
        if bait is not None and record.time <= bait.query_time:
            return  # traffic preceding the reveal cannot be NTP-sourced
        self.events.append(InboundEvent(
            time=record.time,
            src=record.src,
            dst=record.dst,
            dst_port=record.dst_port,
            transport=record.transport.value,
            bait=bait,
        ))

    # -- views --------------------------------------------------------------

    def matched_events(self) -> List[InboundEvent]:
        """Inbound events attributable to an NTP query."""
        return [event for event in self.events if event.bait is not None]

    def scatter_events(self) -> List[InboundEvent]:
        """Inbound events on never-queried addresses."""
        return [event for event in self.events if event.bait is None]

    def match_rate(self) -> float:
        """Share of inbound events matched to a bait (paper: 100 %)."""
        if not self.events:
            return 0.0
        return len(self.matched_events()) / len(self.events)
