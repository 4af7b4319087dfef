"""The scan engine: zgrab2-with-a-scheduler for the simulated network.

The engine is two collaborating parts behind one facade:

* a :class:`ScanScheduler` doing admission control: the per-address
  cool-down (Appendix A.2.1: the same IP is not re-scanned for three
  days).  Cool-down state is TTL-pruned so week-long campaigns do not
  accumulate an unbounded last-scanned map;
* a :class:`ProbeExecutor` running the probe modules of a pluggable
  :class:`~repro.runtime.registry.ProbeRegistry` against each admitted
  target.  Campaigns pick their protocol profile by handing the engine
  a different registry; the default reproduces the paper's eight probes
  (HTTP, HTTPS, SSH, MQTT, MQTTS, AMQP, AMQPS, CoAP).

The engine never moves the clock.  Whoever drives the campaign (the
NTP collection days, the daemon's ticks, a hitlist sweep) owns
simulated time, and every grab carries the clock at its target's
admission, so scanning a burst of sourced addresses does not distort
the collection timeline it is embedded in.  The paper's 100 kpps
budget and inter-protocol pauses are not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.net.clock import DAY
from repro.net.simnet import Network
from repro.obs.metrics import current_registry
from repro.runtime.registry import ProbeRegistry, default_registry
from repro.scan.ethics import EthicsPolicy
from repro.scan.result import Grab, ScanResults


@dataclass
class EngineConfig:
    """Operational parameters of a scan campaign."""

    cooldown: float = 3 * DAY
    #: Admissions between cool-down map sweeps (see ScanScheduler).
    prune_every: int = 4096


@dataclass
class EngineStats:
    """Counters for reporting and tests."""

    targets_offered: int = 0
    targets_scanned: int = 0
    targets_cooled_down: int = 0
    probes_sent: int = 0
    #: Expired cool-down entries evicted by the scheduler's sweeps.
    cooldown_pruned: int = 0


class ScanScheduler:
    """Admission control: the TTL'd per-address cool-down.

    The last-scanned map is swept every ``config.prune_every``
    admissions, evicting entries whose cool-down has already expired
    (they would admit anyway, so dropping them is behaviour-neutral).
    """

    def __init__(self, network: Network, config: EngineConfig,
                 stats: EngineStats, *, name: str = "engine") -> None:
        self.network = network
        self.config = config
        self.stats = stats
        self._last_scanned: Dict[int, float] = {}
        self._admissions = 0
        #: Called with ``(target, now)`` on every successful admission —
        #: the durability tap :class:`repro.store.writer.StoreWriter`
        #: uses to log cool-down state as it changes.
        self.admit_hook: Optional[Callable[[int, float], None]] = None
        metrics = current_registry()
        self._m_admitted = metrics.counter("scheduler_admitted_total",
                                           engine=name)
        self._m_cooldown = metrics.counter("scheduler_cooldown_hits_total",
                                           engine=name)
        self._m_pruned = metrics.counter("scheduler_pruned_total",
                                         engine=name)
        # Never observed (no admission waits); created so every metrics
        # snapshot keeps the series the golden snapshots pin.
        metrics.histogram("scheduler_wait_seconds", engine=name)

    @property
    def tracked_targets(self) -> int:
        """Size of the cool-down map (bounded-memory regression hook)."""
        return len(self._last_scanned)

    def admit(self, target: int) -> bool:
        """Whether ``target`` may be scanned now; records the scan time."""
        now = self.network.clock.now()
        last = self._last_scanned.get(target)
        if last is not None and now - last < self.config.cooldown:
            self.stats.targets_cooled_down += 1
            self._m_cooldown.inc()
            return False
        self._last_scanned[target] = now
        if self.admit_hook is not None:
            self.admit_hook(target, now)
        self._m_admitted.inc()
        self._admissions += 1
        if self._admissions % self.config.prune_every == 0:
            self.prune(now)
        return True

    def prune(self, now: Optional[float] = None) -> int:
        """Evict cool-down entries that already expired; returns count."""
        if now is None:
            now = self.network.clock.now()
        horizon = now - self.config.cooldown
        expired = [address for address, last in self._last_scanned.items()
                   if last <= horizon]
        for address in expired:
            del self._last_scanned[address]
        self.stats.cooldown_pruned += len(expired)
        self._m_pruned.inc(len(expired))
        return len(expired)

    def cooldown_snapshot(self) -> Dict[str, float]:
        """The live cool-down map, JSON-shaped for checkpoints.

        Keys are RFC 5952 address strings (the WAL's address form), in
        sorted order so snapshots of equal state are byte-identical.
        """
        from repro.ipv6 import address as addrmod

        return {addrmod.format_address(target): last
                for target, last in sorted(self._last_scanned.items())}


class ProbeExecutor:
    """Runs a registry's probe modules against admitted targets."""

    def __init__(self, network: Network, source: int,
                 registry: ProbeRegistry, stats: EngineStats,
                 *, name: str = "engine") -> None:
        self.network = network
        self.source = source
        self.registry = registry
        self.stats = stats
        self._name = name
        #: Called with every completed grab — the store's durability tap.
        self.grab_hook: Optional[Callable[[Grab], None]] = None
        self._metrics = current_registry()
        #: protocol → (attempts, successes, latency histogram), cached
        #: per spec so the per-probe hot path is one dict lookup.
        self._instruments: Dict[str, tuple] = {}

    def _probe_instruments(self, protocol: str) -> tuple:
        instruments = self._instruments.get(protocol)
        if instruments is None:
            instruments = (
                self._metrics.counter("probe_attempts_total",
                                      engine=self._name, protocol=protocol),
                self._metrics.counter("probe_success_total",
                                      engine=self._name, protocol=protocol),
                self._metrics.histogram("probe_seconds",
                                        engine=self._name, protocol=protocol),
            )
            self._instruments[protocol] = instruments
        return instruments

    def execute_into(self, target: int,
                     add: Callable[[Grab], None]) -> None:
        """Probe ``target`` with every registered module, in registry
        order, handing each grab to ``add``.

        The target's host is looked up once.  A probe whose spec carries
        its module's refused grab is answered with that grab, without
        running the module, whenever the network settles the attempt as
        refused (:meth:`~repro.net.simnet.Network.skip_refused`).  The
        clock stays put, so every probe's latency is 0.
        """
        network, source = self.network, self.source
        clock = network.clock
        stats = self.stats
        grab_hook = self.grab_hook
        host = network.host(target)
        for spec in self.registry:
            attempts, successes, latency = self._probe_instruments(spec.name)
            stats.probes_sent += 1
            refused = spec.refused
            if refused is not None and network.skip_refused(host, spec.port):
                grab = refused(target, clock.now(), spec.port)
            else:
                grab = spec.probe(network, source, target)
            # One 0.0 per probe: the golden snapshots pin the series.
            latency.observe(0.0)
            attempts.inc()
            if grab.ok:
                successes.inc()
            if grab_hook is not None:
                grab_hook(grab)
            add(grab)


class ScanEngine:
    """Scans targets with the registered probes, under the config's rules."""

    def __init__(self, network: Network, source: int,
                 config: Optional[EngineConfig] = None,
                 ethics: Optional[EthicsPolicy] = None,
                 registry: Optional[ProbeRegistry] = None,
                 *, name: str = "engine") -> None:
        self.network = network
        self.source = source
        self.config = config or EngineConfig()
        self.ethics = ethics
        self.registry = registry if registry is not None else default_registry()
        self.stats = EngineStats()
        #: Label stamped onto this engine's metric series and store
        #: records (``"ntp"``, ``"hitlist"``, ...).
        self.name = name
        self.scheduler = ScanScheduler(network, self.config, self.stats,
                                       name=name)
        self.executor = ProbeExecutor(network, source, self.registry,
                                      self.stats, name=name)
        network.add_host(source, reachable=True)

    # -- durability taps ---------------------------------------------------

    def attach_store(self, writer, *, label: str) -> None:
        """Stream this engine's admissions and grabs into a store.

        ``writer`` is a :class:`repro.store.writer.StoreWriter`;
        ``label`` names the scan (e.g. ``"ntp"``/``"hitlist"``) in the
        logged grab records.
        """
        self.scheduler.admit_hook = writer.admit_sink(self.name)
        self.executor.grab_hook = writer.grab_sink(label)

    def cooldown_snapshots(self) -> Dict[str, Dict[str, float]]:
        """This engine's cool-down map for checkpoints, keyed by its
        name so several engines' maps merge into one dict."""
        return {self.name: self.scheduler.cooldown_snapshot()}

    # -- single target ----------------------------------------------------

    def scan_address(self, target: int) -> List[Grab]:
        """Run every registered probe against one address, in order."""
        grabs: List[Grab] = []
        self.executor.execute_into(target, grabs.append)
        return grabs

    # -- campaign feeding ---------------------------------------------------

    def feed(self, target: int, results: ScanResults) -> bool:
        """Offer one target; scans it unless in cool-down.

        Returns True when the address was actually scanned.
        """
        self.stats.targets_offered += 1
        results.targets_seen += 1
        if self.ethics is not None and not self.ethics.permits(target):
            return False
        if not self.scheduler.admit(target):
            return False
        self.stats.targets_scanned += 1
        self.executor.execute_into(target, results.add)
        return True

    def run(self, targets: Iterable[int], label: str = "") -> ScanResults:
        """Scan a whole target list (the hitlist campaign entry point)."""
        results = ScanResults(label=label)
        for target in targets:
            self.feed(target, results)
        return results
