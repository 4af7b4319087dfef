"""NTP-based address collection (the paper's Section 3 pipeline).

A :class:`CaptureServer` is a pool-member NTP server whose capture hook
feeds a :class:`CollectedDataset` — the growing set of client IPv6
addresses with observation metadata.  The dataset is the object every
downstream analysis consumes: Table 1's counts, Figure 1's structure
profile, Appendix B's MAC analysis, and the real-time scan queue.

Each first sighting calls the dataset's new-address hooks, in the
order they were added — the trigger of the paper's real-time scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.net.clock import DAY
from repro.net.simnet import Network
from repro.ntp.packet import NtpPacket
from repro.ntp.server import NtpServer
from repro.obs.metrics import Counter, MetricsRegistry, current_registry

#: Observer invoked when an address is seen for the very first time:
#: (address, first_seen_time, server_location).
NewAddressHook = Callable[[int, float, str], None]


@dataclass
class AddressObservation:
    """Aggregate record for one distinct collected address."""

    first_seen: float
    last_seen: float
    requests: int = 1


@dataclass
class CollectedDataset:
    """All addresses captured by one collection campaign."""

    label: str = "ntp"
    observations: Dict[int, AddressObservation] = field(default_factory=dict)
    per_server: Dict[str, Set[int]] = field(default_factory=dict)
    total_requests: int = 0
    _hooks: List[NewAddressHook] = field(
        default_factory=list, init=False, repr=False, compare=False)
    #: The registry of the run that built the dataset; its sightings
    #: series appears at the first sighting.
    _metrics: MetricsRegistry = field(
        default_factory=current_registry, init=False, repr=False,
        compare=False)
    #: That series, fetched at the first sighting.
    _sightings: Optional[Counter] = field(
        default=None, init=False, repr=False, compare=False)

    def add_new_address_hook(self, hook: NewAddressHook) -> None:
        """Call ``hook`` at every first sighting (the real-time scan
        trigger), after the hooks added before it."""
        self._hooks.append(hook)

    def record(self, address: int, time: float, server_location: str,
               requests: int = 1) -> bool:
        """Record ``requests`` observations of ``address`` at ``time``.

        Returns True when the address is new to the dataset.
        """
        self.total_requests += requests
        addresses = self.per_server.get(server_location)
        if addresses is None:
            addresses = self.per_server[server_location] = set()
        addresses.add(address)
        observation = self.observations.get(address)
        if observation is not None:
            if time > observation.last_seen:
                observation.last_seen = time
            observation.requests += requests
            return False
        self.observations[address] = AddressObservation(
            first_seen=time, last_seen=time, requests=requests,
        )
        sightings = self._sightings
        if sightings is None:
            sightings = self._sightings = self._metrics.counter(
                "bus_events_total", event="AddressSighted")
        sightings.inc()
        for hook in self._hooks:
            hook(address, time, server_location)
        return True

    # -- views ------------------------------------------------------------

    @property
    def addresses(self) -> Set[int]:
        """The distinct collected addresses."""
        return set(self.observations)

    def __len__(self) -> int:
        return len(self.observations)

    def __contains__(self, address: int) -> bool:
        return address in self.observations

    def iter_addresses(self) -> Iterator[int]:
        return iter(self.observations)

    def per_server_counts(self) -> Dict[str, int]:
        """Distinct addresses per capture server (Appendix D, Table 7)."""
        return {loc: len(addrs) for loc, addrs in self.per_server.items()}

    def first_seen(self, address: int) -> Optional[float]:
        observation = self.observations.get(address)
        return observation.first_seen if observation else None

    def new_addresses_per_day(self) -> Dict[int, int]:
        """Histogram of first-sightings per day (collection-rate check)."""
        histogram: Dict[int, int] = {}
        for observation in self.observations.values():
            day = int(observation.first_seen // DAY)
            histogram[day] = histogram.get(day, 0) + 1
        return histogram


class CaptureServer:
    """A pool NTP server modified to log client source addresses."""

    def __init__(self, network: Network, address: int, location: str,
                 dataset: CollectedDataset) -> None:
        self.location = location
        self.dataset = dataset
        self.server = NtpServer(network, address, location=location)
        self.server.add_capture_hook(self._capture)

    @property
    def address(self) -> int:
        return self.server.address

    @property
    def stats(self):
        return self.server.stats

    def _capture(self, client: int, client_port: int,
                 request: NtpPacket, time: float) -> None:
        self.dataset.record(client, time, self.location)

    def record_direct(self, client: int, time: float,
                      requests: int = 1) -> None:
        """Fast-path capture used by the campaign's aggregate mode.

        Statistically equivalent to ``requests`` wire round-trips
        hitting :meth:`_capture`; the server's request counters are kept
        consistent so operational stats match either mode.
        """
        self.server.stats.requests += requests
        self.server.stats.responses += requests
        self.dataset.record(client, time, self.location, requests=requests)
