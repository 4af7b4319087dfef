"""The collection campaign: pool deployment + day-driven client traffic.

This reproduces Section 3's methodology end to end:

1. deploy capture servers into the pool zones of the 11 study countries
   (competing against the zones' existing servers, whose density is the
   placement criterion);
2. let the world's NTP clients synchronize for the collection window,
   capturing every client address that reaches one of our servers;
3. hand each first-sighted address to the dataset's new-address hooks
   (the real-time scan queue, see :mod:`repro.core.pipeline`).

Client traffic runs day-by-day: churn advances first, then every NTP
client re-resolves the pool a few times (as real ntpd does when its
server set ages out) and spreads its day's polls across the resolved
servers.  A configurable fraction of devices exercises the full wire
path — real mode-3/mode-4 packets through the simulated network — while
the rest uses the statistically identical fast path, keeping large
worlds tractable.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.core.collector import CaptureServer, CollectedDataset
from repro.obs.metrics import COUNT_BUCKETS, current_registry
from repro.ipv6 import address as addrmod
from repro.net.clock import DAY
from repro.ntp.client import NtpClient
from repro.ntp.pool import NtpPool
from repro.ntp.server import NtpServer
from repro.world.geo import DEPLOYMENT_COUNTRIES
from repro.world.population import World


#: Background (non-capture) pool members' weight.
BACKGROUND_NETSPEED = 1000
#: Times per day a client re-resolves the pool DNS.
RESOLUTIONS_PER_DAY = 4
#: Fraction of background pool members that are dead or flaky
#: (registered but unresponsive).  The real pool always carries some:
#: the paper's telescope saw only ~86 % of queries answered.
BACKGROUND_DEAD_RATE = 0.12
#: Netspeed auto-tuning: each round multiplies our servers' weight by
#: the factor, capped at the ceiling.
NETSPEED_FACTOR = 2.0
NETSPEED_CEILING = 1_000_000
#: Seed of the R&L-style pre-campaign (:func:`rl_2022_config`).
RL_2022_SEED = 0x2022


@dataclass
class CampaignConfig:
    """Parameters of one collection campaign."""

    label: str = "ntp"
    #: Collection days of :meth:`CollectionCampaign.run`, its only
    #: reader: ``api.collect`` and ``repro collect``, and the R&L
    #: pre-campaign (:func:`rl_2022_config`).  Runs that step the
    #: campaign with ``advance_days`` ignore it: a batch study runs its
    #: ``lead_days + final_days`` and the daemon its ``campaign_days``.
    days: int = 28
    #: Countries receiving one capture server each.
    deployment: Tuple[str, ...] = DEPLOYMENT_COUNTRIES
    #: Our servers' operator-configured pool weight (the paper raises
    #: this until the request rate matches the scan budget).
    netspeed: int = 4000
    #: Fraction of devices whose every resolution does a real wire
    #: round trip (full codec + capture hook).
    wire_fraction: float = 0.02
    #: Run the pool's health monitoring once per collection day, so
    #: failed members drop out of rotation mid-campaign.
    monitor_daily: bool = False
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        # House style: errors lead with field=value so CLI exit-2
        # output names the offending value.
        if self.days < 1:
            raise ValueError(f"days={self.days}: must be >= 1")
        if not 0.0 <= self.wire_fraction <= 1.0:
            raise ValueError(
                f"wire_fraction={self.wire_fraction}: must be a fraction "
                "in [0, 1]")


@dataclass
class CampaignReport:
    """Outcome of a campaign run."""

    dataset: CollectedDataset
    days_run: int
    wire_queries: int
    fast_queries: int
    per_server_requests: Dict[str, int] = field(default_factory=dict)


class CollectionCampaign:
    """Owns the pool deployment and drives the collection window."""

    def __init__(self, world: World,
                 config: Optional[CampaignConfig] = None) -> None:
        self.world = world
        self.config = config or CampaignConfig()
        self.rng = random.Random(self.config.seed)
        self.dataset = CollectedDataset(label=self.config.label)
        self.pool = NtpPool(
            world.network, rng=random.Random(self.config.seed ^ 1),
            monitor_address=self._infrastructure_prefix(0xFFFF),
        )
        self.capture_servers: Dict[int, CaptureServer] = {}
        self._capture_locations: Dict[int, str] = {}
        self._background_servers: List[NtpServer] = []
        #: Every background member's pool address (dead ones included),
        #: in registration order — the leave-churn candidate set.
        self._background_addresses: List[int] = []
        #: Next free infrastructure-address index (advanced by _deploy,
        #: then by mid-campaign joins).
        self._infra_cursor = 0
        self._deploy()
        self.wire_queries = 0
        self.fast_queries = 0
        self._metrics = current_registry()
        self._m_days = self._metrics.counter("campaign_days_total",
                                             campaign=self.config.label)

    # -- deployment -------------------------------------------------------

    def _infrastructure_prefix(self, index: int) -> int:
        """Address space for NTP infrastructure (outside the world's ASes).

        Disambiguated per campaign label so that consecutive campaigns
        (e.g. the R&L 2022 profile followed by ours) never collide.
        """
        base = addrmod.parse("2001:500::")
        campaign_id = sum(self.config.label.encode()) & 0xFFFF
        return base + (campaign_id << 80) + (index << 64)

    def _deploy(self) -> None:
        """Register background zone members, then our capture servers.

        Following the paper's ethics (Appendix A.1.1) we never deploy
        into an *empty* zone: countries with zero competing servers are
        served by the global rotation and our server joins the zone
        only if it already has members.
        """
        index = 0
        for country in self.world.geo.countries:
            for _ in range(country.competing_servers):
                address = self._infrastructure_prefix(index)
                index += 1
                if self.rng.random() >= BACKGROUND_DEAD_RATE:
                    server = self._background_server(
                        address, location=f"bg-{country.code}")
                    self._background_servers.append(server)
                # Dead members stay registered (the pool's DNS hands
                # them out until monitoring catches up) but answer
                # nothing — clients simply lose those polls.
                self.pool.register(address, country.code.lower(),
                                   netspeed=BACKGROUND_NETSPEED,
                                   operator="background")
                self._background_addresses.append(address)
        for code in self.config.deployment:
            country = self.world.geo.country(code)
            if country.competing_servers == 0:
                continue  # refuse to fill an empty zone
            address = self._infrastructure_prefix(index)
            index += 1
            capture = CaptureServer(self.world.network, address,
                                    location=country.name,
                                    dataset=self.dataset)
            self.capture_servers[address] = capture
            self._capture_locations[address] = country.name
            self.pool.register(address, code.lower(),
                               netspeed=self.config.netspeed,
                               operator="study")
        self._infra_cursor = index

    def _background_server(self, address: int, *,
                           location: str) -> NtpServer:
        """A background pool member: a plain time server, no capture."""
        return NtpServer(self.world.network, address, location=location)

    # -- mid-campaign pool churn (the service daemon's lever) ----------------

    def add_background_server(self, country_code: str, *,
                              dead: bool = False) -> int:
        """A new background member joins its country zone mid-campaign.

        The real pool's membership is never static over a multi-week
        window: operators join, leave, and fail.  ``dead=True`` models a
        member that registers but answers nothing (same as the
        :data:`BACKGROUND_DEAD_RATE` share at deployment).  Returns the
        new member's address.
        """
        address = self._infrastructure_prefix(self._infra_cursor)
        self._infra_cursor += 1
        if not dead:
            self._background_servers.append(
                self._background_server(address,
                                        location=f"bg-{country_code}"))
        self.pool.register(address, country_code.lower(),
                           netspeed=BACKGROUND_NETSPEED,
                           operator="background")
        self._background_addresses.append(address)
        return address

    def remove_background_server(self, address: int) -> None:
        """De-advertise one background member (it leaves rotation)."""
        self.pool.deregister(address)
        self._background_addresses.remove(address)

    def remove_random_background(self,
                                 rng: random.Random) -> Optional[int]:
        """De-advertise a random background member; None if none left."""
        if not self._background_addresses:
            return None
        address = rng.choice(self._background_addresses)
        self.remove_background_server(address)
        return address

    def background_pool_size(self) -> int:
        """Background members still advertised (dead ones included)."""
        return len(self._background_addresses)

    # -- mid-campaign population drift ---------------------------------------

    def adopt_client(self, device) -> None:
        """Add a drifted-in NTP client to the frozen collection roster.

        :meth:`start` freezes the roster once; long-running campaigns
        grow it explicitly through this hook so the wire-path sample
        stays consistent (each new device draws its wire membership from
        the same campaign RNG stream as the founders).
        """
        self.start()
        self._clients.append(device)
        if self.rng.random() < self.config.wire_fraction:
            self._wire_devices.add(id(device))

    def retire_client(self, device) -> None:
        """Drop a retired device from the roster (idempotent)."""
        self.start()
        try:
            self._clients.remove(device)
        except ValueError:
            pass
        self._wire_devices.discard(id(device))

    def deregister_all(self) -> None:
        """De-advertise our servers (the wind-down grace period)."""
        for address in self.capture_servers:
            self.pool.deregister(address)

    # -- the collection window ----------------------------------------------

    def start(self) -> None:
        """Freeze the client roster and wire sample; idempotent."""
        if getattr(self, "_started", False):
            return
        self._started = True
        self._days_run = 0
        self._clients = self.world.ntp_clients()
        self._wire_devices = {
            id(device) for device in self._clients
            if self.rng.random() < self.config.wire_fraction
        }

    def advance_days(self, days: int) -> None:
        """Run ``days`` more collection days (interleavable with other
        activity, e.g. the hitlist scan during the final week)."""
        self.start()
        for _ in range(days):
            day_start = self.world.clock.now()
            if self._days_run > 0:
                self.world.churn.step_day()
            if self.config.monitor_daily:
                self.pool.run_monitor()
            before = {location: len(addresses) for location, addresses
                      in self.dataset.per_server.items()}
            self._run_day(day_start, self._clients, self._wire_devices)
            self.world.clock.advance_to(day_start + DAY)
            self._days_run += 1
            self._record_day_metrics(before)

    def _record_day_metrics(self, before: Dict[str, int]) -> None:
        """Per-server, per-simulated-day sourcing volume (Table 7's axis)."""
        self._m_days.inc()
        label = self.config.label
        day_total = 0
        for location, addresses in self.dataset.per_server.items():
            new_addresses = len(addresses) - before.get(location, 0)
            day_total += new_addresses
            self._metrics.counter("campaign_addresses_total",
                                  campaign=label, server=location,
                                  ).inc(new_addresses)
            self._metrics.histogram("campaign_server_day_addresses",
                                    buckets=COUNT_BUCKETS,
                                    campaign=label, server=location,
                                    ).observe(new_addresses)
        self._metrics.histogram("campaign_day_addresses",
                                buckets=COUNT_BUCKETS, campaign=label,
                                ).observe(day_total)

    # -- operator weight tuning (paper Section 3.1) --------------------------

    def autotune_netspeed(self, target_daily_requests: int, *,
                          max_days: int = 6) -> List[Dict[str, int]]:
        """Raise our servers' netspeed until the request rate fits the
        scan budget.

        Mirrors the paper's ramp-up: "we monitor the number of requests
        and increase our servers' operator-configurable weight in the
        NTP Pool until reaching, at peak times, a request rate close to
        our maximum scanning rate."  Each tuning round costs one
        collection day (observed rates come from real traffic).
        Returns the per-round log of observed totals and weights.
        """
        if target_daily_requests <= 0:
            raise ValueError("target_daily_requests must be positive")
        log: List[Dict[str, int]] = []
        for _ in range(max_days):
            before = {address: server.stats.requests
                      for address, server in self.capture_servers.items()}
            self.advance_days(1)
            observed = sum(
                server.stats.requests - before[address]
                for address, server in self.capture_servers.items())
            entry = {
                "observed_requests": observed,
                "netspeed": self.pool.server(
                    next(iter(self.capture_servers))).netspeed,
            }
            log.append(entry)
            if observed >= target_daily_requests:
                break
            for address in self.capture_servers:
                current = self.pool.server(address).netspeed
                self.pool.set_netspeed(
                    address,
                    min(NETSPEED_CEILING, int(current * NETSPEED_FACTOR)))
        return log

    def report(self) -> CampaignReport:
        """Summarize everything collected so far."""
        return CampaignReport(
            dataset=self.dataset,
            days_run=getattr(self, "_days_run", 0),
            wire_queries=self.wire_queries,
            fast_queries=self.fast_queries,
            per_server_requests={
                server.location: server.stats.requests
                for server in self.capture_servers.values()
            },
        )

    def run(self) -> CampaignReport:
        """Run the configured number of days; returns the report."""
        self.start()
        self.advance_days(self.config.days)
        return self.report()

    def _zone_table(self, country: str) -> tuple:
        """The day table of ``country``'s clients: what one poll's pool
        draw reaches.

        Built from the pool's rotation for the country's zone
        (:meth:`NtpPool.rotation`): ``(cum_weights, total, last,
        captures)``, the rotation's cumulative netspeeds, their total
        and last position, and for each position the
        :class:`CaptureServer` at that address or None.  The table is
        ``()`` when nothing is in rotation.
        """
        servers, cum_weights, total, last = self.pool.rotation(
            country.lower())
        if not servers:
            return ()
        captures = [self.capture_servers.get(server.address)
                    for server in servers]
        return cum_weights, total, last, captures

    def _run_day(self, day_start: float, clients, wire_devices) -> None:
        """One collection day: each client wakes at a random time of
        day, resolves the pool ``min(RESOLUTIONS_PER_DAY, polls)``
        times and spreads its day's polls over what it got; the polls
        that reach a capture server are recorded there.

        A pool draw bisects the cumulative weights of the client's day
        table (:meth:`_zone_table`) with one ``self.rng.random()``,
        exactly as :meth:`NtpPool.resolve` does, so it picks the server
        ``resolve`` would and leaves the RNG in the same state: a draw
        that reaches no capture server records nothing, and an empty
        rotation draws nothing.  A country's table is built at its
        first client and kept for this call only, because the pool
        changes (``register``, ``deregister``, ``set_netspeed``,
        ``run_monitor``) only between days.  So is each
        ``ntp_interval``'s poll plan, its draws and the polls per draw
        (:func:`_poll_plan`), at its first client.
        """
        random_ = self.rng.random
        events = [(random_() * DAY, device) for device in clients]
        events.sort(key=itemgetter(0))
        clock = self.world.clock
        tables: Dict[str, tuple] = {}
        plans: Dict[float, tuple] = {}
        for offset, device in events:
            clock.advance_to(max(day_start + offset, clock.now()))
            plan = plans.get(device.ntp_interval)
            if plan is None:
                plan = plans[device.ntp_interval] = _poll_plan(
                    device.ntp_interval)
            draws, share = plan
            table = tables.get(device.country)
            if table is None:
                table = tables[device.country] = self._zone_table(
                    device.country)
            if not table:
                continue  # nothing in rotation: no lookup draws
            cum_weights, total, last, captures = table
            for _ in draws:
                capture = captures[bisect_right(cum_weights,
                                                random_() * total, 0, last)]
                if capture is None:
                    continue  # a background server absorbed these polls
                if id(device) in wire_devices:
                    client = NtpClient(self.world.network, device.address)
                    result = client.query(capture.address)
                    self.wire_queries += 1
                    if result is not None and share > 1:
                        capture.record_direct(device.address, clock.now(),
                                              requests=share - 1)
                        self.fast_queries += share - 1
                else:
                    capture.record_direct(device.address, clock.now(),
                                          requests=share)
                    self.fast_queries += share


def _poll_plan(ntp_interval: float) -> tuple:
    """``(draws, share)`` of a client polling every ``ntp_interval``
    seconds: a range over its ``min(RESOLUTIONS_PER_DAY, polls)`` pool
    draws a day, and the polls each draw stands for."""
    polls = max(1, round(DAY / ntp_interval))
    return (range(min(RESOLUTIONS_PER_DAY, polls)),
            max(1, polls // RESOLUTIONS_PER_DAY))


def rl_2022_config(days: int = 14) -> CampaignConfig:
    """A Rye-&-Levin-style deployment profile.

    R&L ran 27 servers for seven months with a different (undisclosed)
    placement.  For the Table 1 overlap rows we run this profile on the
    same world *before* our campaign: more servers, default weights, a
    placement covering many zones.  The world churns on between the two
    campaigns, so the overlap is structural, not total.
    """
    return CampaignConfig(
        label="rl2022",
        days=days,
        deployment=(
            "US", "US", "US", "DE", "DE", "GB", "FR", "NL", "SE", "CH",
            "JP", "JP", "AU", "BR", "IN", "ES", "IT", "PL", "CA", "MX",
            "KR", "ZA", "TH", "AR", "ID", "VN", "EG",
        ),
        netspeed=1000,
        wire_fraction=0.0,
        seed=RL_2022_SEED,
    )
