"""Dynamic addressing: prefix rotation and privacy-IID churn.

Two mechanisms make end-user IPv6 addresses short-lived, and both are
central to the paper (they inflate collected-address counts and make
static hitlists stale for eyeball networks):

* **prefix churn** — ISPs delegate a new /56 to a customer premises
  periodically (German ISPs famously rotate daily), moving *every*
  device in the home to new addresses;
* **privacy extensions** — RFC 8981 hosts rotate their interface
  identifier about once a day even under a stable prefix.

The model steps in whole days.  Each premises has a rotation
probability per day; each privacy-addressed device re-draws its IID
daily.  Devices keep their identity (keys, certificates, MAC) across
moves, which is exactly why the paper deduplicates by key/certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.clock import VirtualClock
from repro.net.dns import DnsZone
from repro.net.simnet import Network
from repro.world.devices import Device


@dataclass
class Premises:
    """One customer site: a delegated /56 hosting several devices."""

    site_id: int
    asn: int
    country: str
    prefix56: int
    devices: List[Device] = field(default_factory=list)
    #: Per-day probability that the ISP delegates a fresh /56.
    rotation_rate: float = 0.0
    #: Allocation cursor inside the AS (used to derive fresh prefixes).
    allocation_index: int = 0

    def device_prefix64(self, slot: int) -> int:
        """The /64 used by device slot ``slot`` inside the /56."""
        if not 0 <= slot < 256:
            raise ValueError(f"/56 holds 256 /64s, slot {slot} invalid")
        return self.prefix56 + (slot << 64)


class ChurnModel:
    """Advances dynamic addressing one day at a time."""

    def __init__(self, network: Network, rng: random.Random,
                 fresh_prefix56, dns: Optional[DnsZone] = None,
                 clock: Optional[VirtualClock] = None) -> None:
        """``fresh_prefix56(premises) -> int`` allocates a new /56 for a
        rotating premises (provided by the world builder, which owns the
        per-AS address plan).  With a ``dns`` zone attached, devices
        carrying a ``dns_name`` label run a DDNS update after moving."""
        self.network = network
        self.rng = rng
        self._fresh_prefix56 = fresh_prefix56
        self.dns = dns
        self.clock = clock
        self.premises: List[Premises] = []
        self.rotations = 0
        self.iid_rotations = 0
        self.ddns_updates = 0

    def register(self, premises: Premises) -> None:
        self.premises.append(premises)

    def step_day(self) -> None:
        """One day of churn across every registered premises."""
        for site in self.premises:
            if site.rotation_rate > 0 and self.rng.random() < site.rotation_rate:
                self._rotate_prefix(site)
            else:
                self._rotate_privacy_iids(site)

    def _rotate_prefix(self, site: Premises) -> None:
        new56 = self._fresh_prefix56(site)
        site.prefix56 = new56
        for slot, device in enumerate(site.devices):
            device.rehome(self.network, site.device_prefix64(slot), self.rng)
            self._ddns_update(device)
        self.rotations += 1

    def _ddns_update(self, device: Device) -> None:
        if self.dns is None:
            return
        name = device.labels.get("dns_name")
        if name is None:
            return
        now = self.clock.now() if self.clock is not None else 0.0
        self.dns.update(name, device.address, now)
        self.ddns_updates += 1

    def _rotate_privacy_iids(self, site: Premises) -> None:
        for device in site.devices:
            if device.addressing == "privacy":
                device.rotate_iid(self.network, self.rng)
                self.iid_rotations += 1
