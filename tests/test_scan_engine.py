"""Tests for the scan engine: protocol coverage, cool-down, and a clock
the engine never moves."""

import random

import pytest

from repro.ipv6 import parse
from repro.net.clock import DAY
from repro.scan.engine import EngineConfig, ScanEngine
from repro.scan.result import PROTOCOLS, ScanResults
from repro.world import devices as dev

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


class TestScanAddress:
    def test_all_protocols_probed(self, network, fritz):
        engine = ScanEngine(network, SRC)
        grabs = engine.scan_address(fritz.address)
        assert len(grabs) == len(PROTOCOLS)
        assert {grab.protocol for grab in grabs} == set(PROTOCOLS)

    def test_fritz_answers_web_only(self, network, fritz):
        engine = ScanEngine(network, SRC)
        outcomes = {grab.protocol: grab.ok
                    for grab in engine.scan_address(fritz.address)}
        assert outcomes["http"] and outcomes["https"]
        assert not outcomes["ssh"]
        assert not outcomes["coap"]

    def test_embedded_mode_freezes_clock(self, network, fritz):
        engine = ScanEngine(network, SRC)
        start = network.clock.now()
        engine.scan_address(fritz.address)
        assert network.clock.now() == start


class TestCooldown:
    def test_cooldown_suppresses_rescan(self, network, fritz):
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        assert engine.feed(fritz.address, results) is True
        assert engine.feed(fritz.address, results) is False
        assert engine.stats.targets_cooled_down == 1
        assert len(results.http) == 1

    def test_cooldown_expires(self, network, fritz):
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        engine.feed(fritz.address, results)
        network.clock.advance(3 * DAY + 1)
        assert engine.feed(fritz.address, results) is True

    def test_distinct_addresses_not_cooled(self, network, rng):
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        for index in range(3):
            device = dev.make_fritzbox(rng, index, 0x3C3786000100 + index)
            device.assign_address(PREFIX + (index << 64), rng)
            device.materialize(network)
            assert engine.feed(device.address, results) is True
        assert engine.stats.targets_scanned == 3


class TestCooldownPruning:
    def test_expired_entries_evicted(self, network, rng):
        """The last-scanned map stays bounded over a long campaign."""
        config = EngineConfig(prune_every=10)
        engine = ScanEngine(network, SRC, config)
        results = ScanResults()
        prefix = parse("2001:db8:610::")
        # Feed batches of fresh (dead) addresses, advancing past the
        # cool-down between batches so earlier entries expire.
        for batch in range(8):
            for index in range(10):
                engine.feed(prefix + (batch << 32) + index, results)
            network.clock.advance(engine.config.cooldown + 1)
        # Without pruning the map would hold all 80 entries.
        assert engine.scheduler.tracked_targets <= 20
        assert engine.stats.cooldown_pruned >= 60
        assert engine.stats.targets_scanned == 80

    def test_pruning_never_weakens_cooldown(self, network, fritz):
        """An address inside its cool-down window survives sweeps."""
        config = EngineConfig(prune_every=5)
        engine = ScanEngine(network, SRC, config)
        results = ScanResults()
        engine.feed(fritz.address, results)
        # Burn several sweep cycles without advancing time.
        for index in range(25):
            engine.feed(parse("2001:db8:611::") + index, results)
        assert engine.feed(fritz.address, results) is False
        assert engine.stats.targets_cooled_down == 1

    def test_manual_prune_reports_evictions(self, network, fritz):
        engine = ScanEngine(network, SRC)
        engine.feed(fritz.address, ScanResults())
        assert engine.scheduler.prune() == 0
        network.clock.advance(engine.config.cooldown + 1)
        assert engine.scheduler.prune() == 1
        assert engine.scheduler.tracked_targets == 0


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
