"""Tests for the scan engine: protocol coverage, cool-down, a clock the
engine never moves, refused probes settled in probe order, and probe
series that appear at the first probe."""

import dataclasses
import random

import pytest

from repro.ipv6 import parse
from repro.net.clock import DAY, VirtualClock
from repro.net.simnet import Network
from repro.obs.metrics import use_registry
from repro.runtime.registry import ProbeRegistry, default_registry
import repro.scan.engine
from repro.scan.engine import COOLDOWN, ScanEngine
from repro.scan.result import PROTOCOLS, ScanResults
from repro.world import devices as dev
from tests.net_reference import SimpleSession, advance

SRC = parse("2001:db8:5c::1")
PREFIX = parse("2001:db8:600::")


@pytest.fixture()
def rng():
    return random.Random(11)


@pytest.fixture()
def fritz(network, rng):
    device = dev.make_fritzbox(rng, 0, 0x3C3786001234)
    device.assign_address(PREFIX, rng)
    device.materialize(network)
    return device


def _probe(engine, target):
    """The answered grabs of one run of the probe loop over ``target``."""
    grabs = []
    engine.execute_into(target, grabs.append)
    return grabs


class TestScanAddress:
    def test_all_protocols_probed(self, network, fritz):
        with use_registry() as metrics:
            engine = ScanEngine(network, SRC)
            _probe(engine, fritz.address)
        assert {protocol: metrics.value("probe_attempts_total",
                                        engine="engine", protocol=protocol)
                for protocol in PROTOCOLS} == dict.fromkeys(PROTOCOLS, 1)

    def test_fritz_answers_web_only(self, network, fritz):
        # Only answered grabs come back: a refused probe leaves its
        # counters, not a grab.
        engine = ScanEngine(network, SRC)
        grabs = _probe(engine, fritz.address)
        assert [(grab.protocol, grab.ok) for grab in grabs] == \
            [("http", True), ("https", True)]

    def test_embedded_mode_freezes_clock(self, network, fritz):
        engine = ScanEngine(network, SRC)
        start = network.clock.now()
        _probe(engine, fritz.address)
        assert network.clock.now() == start


class TestCooldown:
    def test_cooldown_suppresses_rescan(self, network, fritz, metrics):
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        assert engine.feed(fritz.address, results) is True
        assert engine.feed(fritz.address, results) is False
        assert metrics.value("scheduler_cooldown_hits_total",
                             engine="engine") == 1
        assert len(results.http) == 1

    def test_cooldown_expires(self, network, fritz):
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        engine.feed(fritz.address, results)
        advance(network.clock, 3 * DAY + 1)
        assert engine.feed(fritz.address, results) is True

    def test_distinct_addresses_not_cooled(self, network, rng, metrics):
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        for index in range(3):
            device = dev.make_fritzbox(rng, index, 0x3C3786000100 + index)
            device.assign_address(PREFIX + (index << 64), rng)
            device.materialize(network)
            assert engine.feed(device.address, results) is True
        assert metrics.value("scheduler_admitted_total",
                             engine="engine") == 3


class TestCooldownPruning:
    def test_expired_entries_evicted(self, network, rng, metrics,
                                     monkeypatch):
        """The last-scanned map stays bounded over a long campaign."""
        monkeypatch.setattr(repro.scan.engine, "PRUNE_EVERY", 10)
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        prefix = parse("2001:db8:610::")
        # Feed batches of fresh (dead) addresses, advancing past the
        # cool-down between batches so earlier entries expire.
        for batch in range(8):
            for index in range(10):
                engine.feed(prefix + (batch << 32) + index, results)
            advance(network.clock, COOLDOWN + 1)
        # Without pruning the map would hold all 80 entries.
        assert len(engine.scheduler._last_scanned) <= 20
        assert metrics.value("scheduler_pruned_total",
                             engine="engine") >= 60
        assert metrics.value("scheduler_admitted_total",
                             engine="engine") == 80

    def test_pruning_never_weakens_cooldown(self, network, fritz, metrics,
                                            monkeypatch):
        """An address inside its cool-down window survives sweeps."""
        monkeypatch.setattr(repro.scan.engine, "PRUNE_EVERY", 5)
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        engine.feed(fritz.address, results)
        # Burn several sweep cycles without advancing time.
        for index in range(25):
            engine.feed(parse("2001:db8:611::") + index, results)
        assert engine.feed(fritz.address, results) is False
        assert metrics.value("scheduler_cooldown_hits_total",
                             engine="engine") == 1

    def test_manual_prune_reports_evictions(self, network, fritz):
        engine = ScanEngine(network, SRC)
        engine.feed(fritz.address, ScanResults())
        assert engine.scheduler.prune() == 0
        advance(network.clock, COOLDOWN + 1)
        assert engine.scheduler.prune() == 1
        assert len(engine.scheduler._last_scanned) == 0


class TestRun:
    """A default-built engine scans a whole list without moving the
    clock: windows, anchors and WAL verify-replay rely on every grab
    carrying its admission time."""

    def test_run_over_target_list(self, network, fritz):
        engine = ScanEngine(network, SRC)
        start = network.clock.now()
        dead = parse("2001:db8:601::1")
        results = engine.run([fritz.address, dead], label="hitlist")
        assert network.clock.now() == start
        assert results.label == "hitlist"
        assert results.targets_seen == 2
        assert results.responsive_addresses("http") == {fritz.address}
        assert {grab.time for protocol in results.protocols()
                for grab in results.grabs(protocol)} == {start}

    def test_hit_rate(self, network, fritz):
        engine = ScanEngine(network, SRC)
        start = network.clock.now()
        dead = [parse("2001:db8:602::1") + i for i in range(9)]
        results = engine.run([fritz.address] + dead)
        assert network.clock.now() == start
        assert results.hit_rate() == pytest.approx(0.1)


class _PortRecorder:
    """Accepts every connection on a silent session; records the
    client port of each."""

    def __init__(self):
        self.ports = []

    def accept(self, peer, peer_port):
        self.ports.append(peer_port)
        return SimpleSession(respond=lambda data: None)


class TestRefusedSettling:
    def _scan(self, *, settle):
        """Scan a host with only HTTPS (TCP) and CoAP (UDP) open; the
        grabs, the client ports its services saw and the next port."""
        network = Network(VirtualClock(start=50.0))
        target = parse("2001:db8:604::1")
        host = network.add_host(target)
        service, udp_ports = _PortRecorder(), []
        host.bind_tcp(443, service)
        host.bind_udp(5683, lambda datagram: udp_ports.append(
            datagram.src_port))
        registry = default_registry()
        if not settle:
            registry = ProbeRegistry(dataclasses.replace(spec, refused=None)
                                     for spec in registry)
        grabs = _probe(ScanEngine(network, SRC, registry=registry), target)
        return grabs, service.ports + udp_ports, network.ephemeral_port()

    def test_settled_probes_take_ports_in_probe_order(self):
        """Closed ports are settled between the open ones, and each
        probe keeps the client port of its place in probe order."""
        settled = self._scan(settle=True)
        assert settled == self._scan(settle=False)
        # HTTPS is the 2nd of the 8 probes and CoAP the 8th.
        assert settled[1:] == ([49153, 49159], 49160)


class TestProbeSeries:
    SERIES = ("probe_attempts_total", "probe_success_total")
    #: Series no engine creates: nothing moves the clock, so a probe
    #: latency or an admission wait would always read 0.
    DELETED = ("probe_seconds", "scheduler_wait_seconds")

    @pytest.mark.parametrize("entry", ["feed", "execute_into", "run"])
    def test_series_appear_at_first_probe(self, network, entry):
        dead = parse("2001:db8:605::1")
        with use_registry() as metrics:
            engine = ScanEngine(network, SRC)
            for name in self.SERIES:
                assert not metrics.find(name)
            if entry == "feed":
                engine.feed(dead, ScanResults())
            elif entry == "execute_into":
                _probe(engine, dead)
            else:
                engine.run([dead], label="hitlist")
        for name in self.SERIES:
            assert len(metrics.find(name)) == len(PROTOCOLS)
        for protocol in PROTOCOLS:
            labels = {"engine": "engine", "protocol": protocol}
            assert metrics.value("probe_attempts_total", **labels) == 1
            assert metrics.value("probe_success_total", **labels) == 0
        for name in self.DELETED:
            assert not metrics.find(name)
