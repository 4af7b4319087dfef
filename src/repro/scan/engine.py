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


class ScanScheduler:
    """Admission control: the TTL'd per-address cool-down.

    The last-scanned map is swept every ``config.prune_every``
    admissions, evicting entries whose cool-down has already expired
    (they would admit anyway, so dropping them is behaviour-neutral).
    """

    def __init__(self, network: Network, config: EngineConfig,
                 *, name: str = "engine") -> None:
        self.network = network
        self.config = config
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

    @property
    def tracked_targets(self) -> int:
        """Size of the cool-down map (bounded-memory regression hook)."""
        return len(self._last_scanned)

    def admit(self, target: int) -> bool:
        """Whether ``target`` may be scanned now; records the scan time."""
        now = self.network.clock.now()
        last = self._last_scanned.get(target)
        if last is not None and now - last < self.config.cooldown:
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
    """Runs a registry's probe modules against admitted targets.

    A probe whose spec carries its module's refused grab, on a port the
    network would refuse, is settled without running the module (see
    :meth:`execute_into`).  With a store attached, the settled probes of
    a target reach it as runs of consecutive probes, each run in one
    call of the plan's refused-record writer
    (:meth:`repro.store.writer.StoreWriter.refused_sink`).
    """

    def __init__(self, network: Network, source: int,
                 registry: ProbeRegistry, *, name: str = "engine") -> None:
        self.network = network
        self.source = source
        self.registry = registry
        self._name = name
        #: Called with the grab of every dispatched probe, answered or
        #: not: the store's durability tap (settled probes go to the
        #: plan's refused-record writer instead).
        self.grab_hook: Optional[Callable[[Grab], None]] = None
        #: ``(writer, label)`` of the attached store (see :meth:`attach_store`).
        self._store: Optional[tuple] = None
        self._metrics = current_registry()
        #: The probe plan and its refused-record writer (see
        #: :meth:`_build_plan`).
        self._plan: Optional[tuple] = None

    def attach_store(self, writer, label: str) -> None:
        """Record this executor's probes in ``writer`` under scan
        ``label``: dispatched probes' grabs through :attr:`grab_hook`,
        settled probes through the writer's refused-record writer for
        the plan (rebuilt at the next probe)."""
        self.grab_hook = writer.grab_sink(label)
        self._store = (writer, label)
        self._plan = None

    def _build_plan(self) -> tuple:
        """The probe plan and its refused-record writer.

        The plan holds one ``(probe, member, port, attempts, successes)``
        per spec, in registry order: the spec's probe, its member index
        (its position among the specs that carry a refused grab
        builder, or None for a spec without one, whose probe is never
        settled), its port and its ``probe_attempts_total`` and
        ``probe_success_total`` counters, looked up once.  With a store
        attached, the writer is the store's refused-record writer over
        those specs, which takes member indices; otherwise it is None.

        Built at the first probe, so the series appear when they are
        first used, and fixed from then on (until a store is attached):
        the probe set is the registry's at that moment.
        """
        metrics, name, store = self._metrics, self._name, self._store
        settling = [spec for spec in self.registry
                    if spec.refused is not None]
        members = {spec.name: member for member, spec in enumerate(settling)}
        plan = tuple(
            (spec.probe, members.get(spec.name), spec.port,
             metrics.counter("probe_attempts_total",
                             engine=name, protocol=spec.name),
             metrics.counter("probe_success_total",
                             engine=name, protocol=spec.name))
            for spec in self.registry)
        write_refused = (None if store is None
                         else store[0].refused_sink(store[1], settling))
        return plan, write_refused

    def execute_into(self, target: int,
                     add: Callable[[Grab], None]) -> None:
        """Probe ``target`` with every registered module, in registry
        order, handing each answered (``ok``) grab to ``add``.

        Per target, the host is looked up once and the network says
        once which ports must really be delivered
        (:meth:`~repro.net.simnet.Network.ports_to_deliver`).  A probe
        whose spec carries its module's refused grab, on any other
        port, is settled as refused without running the module and
        builds no grab: it takes its ephemeral port, in probe order,
        and its attempt count.  With a store attached, the member
        indices of consecutive settled probes are collected and handed,
        with ``(target, now)``, to the plan's refused-record writer
        before the next dispatched probe and once at the end, so an
        all-refused target makes one call.  A dispatched probe's grab
        goes to the store whatever its outcome.  The clock stays put.
        """
        if self._plan is None:
            self._plan = self._build_plan()
        plan, write_refused = self._plan
        network, source = self.network, self.source
        clock = network.clock
        grab_hook = self.grab_hook
        deliver = network.ports_to_deliver(network.host(target))
        settled = []
        for probe, member, port, attempts, successes in plan:
            attempts.inc()
            if member is None or deliver is None or port in deliver:
                if settled:
                    write_refused(target, clock.now(), settled)
                    settled = []
                grab = probe(network, source, target)
                if grab_hook is not None:
                    grab_hook(grab)
                if grab.ok:
                    successes.inc()
                    add(grab)
            else:
                network.ephemeral_port()
                if write_refused is not None:
                    settled.append(member)
        if settled:
            write_refused(target, clock.now(), settled)


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
        #: Label stamped onto this engine's metric series and store
        #: records (``"ntp"``, ``"hitlist"``, ...).
        self.name = name
        self.scheduler = ScanScheduler(network, self.config, name=name)
        self.executor = ProbeExecutor(network, source, self.registry,
                                      name=name)
        network.add_host(source, reachable=True)

    # -- durability taps ---------------------------------------------------

    def attach_store(self, writer, *, label: str) -> None:
        """Stream this engine's admissions and grabs into a store.

        ``writer`` is a :class:`repro.store.writer.StoreWriter`;
        ``label`` names the scan (e.g. ``"ntp"``/``"hitlist"``) in the
        logged grab records.
        """
        self.scheduler.admit_hook = writer.admit_sink(self.name)
        self.executor.attach_store(writer, label)

    def cooldown_snapshots(self) -> Dict[str, Dict[str, float]]:
        """This engine's cool-down map for checkpoints, keyed by its
        name so several engines' maps merge into one dict."""
        return {self.name: self.scheduler.cooldown_snapshot()}

    # -- single target ----------------------------------------------------

    def scan_address(self, target: int) -> List[Grab]:
        """Run every registered probe against one address, in order;
        returns the answered grabs, as :meth:`feed` would add them."""
        grabs: List[Grab] = []
        self.executor.execute_into(target, grabs.append)
        return grabs

    # -- campaign feeding ---------------------------------------------------

    def feed(self, target: int, results: ScanResults) -> bool:
        """Offer one target; scans it unless in cool-down.

        Returns True when the address was actually scanned.
        """
        results.targets_seen += 1
        if self.ethics is not None and not self.ethics.permits(target):
            return False
        if not self.scheduler.admit(target):
            return False
        self.executor.execute_into(target, results.add)
        return True

    def run(self, targets: Iterable[int], label: str = "") -> ScanResults:
        """Scan a whole target list (the hitlist campaign entry point)."""
        results = ScanResults(label=label)
        for target in targets:
            self.feed(target, results)
        return results
