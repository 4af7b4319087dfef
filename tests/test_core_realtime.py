"""Tests for the real-time collection → scan coupling."""

import pytest

from repro.core.collector import CollectedDataset
from repro.core.realtime import RealTimeScanQueue
from repro.ipv6 import parse
from repro.scan.engine import ScanEngine

SRC = parse("2001:db8:5c::1")


@pytest.fixture()
def engine(network):
    return ScanEngine(network, SRC)


class TestCoupling:
    def test_new_address_triggers_scan(self, network, engine):
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine)
        dataset.add_new_address_hook(queue.on_sighting)
        dataset.record(parse("2001:db8::1"), 0.0, "Germany")
        assert queue.stats.triggered == 1
        assert queue.stats.scanned == 1
        assert queue.results.targets_seen == 1

    def test_repeat_sighting_not_rescanned(self, network, engine):
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine)
        dataset.add_new_address_hook(queue.on_sighting)
        dataset.record(parse("2001:db8::1"), 0.0, "Germany")
        dataset.record(parse("2001:db8::1"), 1.0, "India")
        assert queue.stats.triggered == 1

    def test_scan_results_accumulate(self, network, engine):
        import random

        from repro.world import devices as dev

        rng = random.Random(1)
        device = dev.make_fritzbox(rng, 0, 0x3C3786009999)
        device.assign_address(parse("2001:db8:77::"), rng)
        device.materialize(network)

        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine)
        dataset.add_new_address_hook(queue.on_sighting)
        dataset.record(device.address, 0.0, "Germany")
        assert queue.results.responsive_addresses("http") == {device.address}


class TestBackpressure:
    def test_bounded_intake_drops_and_accounts(self, network, engine):
        """When sourcing outruns the scanner, drops are explicit."""
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine, capacity=5, auto_drain=False)
        dataset.add_new_address_hook(queue.on_sighting)
        for index in range(8):
            dataset.record(parse("2001:db8::") + index, 0.0, "Germany")
        assert queue.pending == 5
        assert queue.stats.dropped == 3
        assert queue.stats.received == 8
        # Dropped targets still count toward the hit-rate denominator.
        assert queue.results.targets_seen == 3
        drained = queue.drain()
        assert drained == 5
        assert queue.stats.processed == 5
        assert queue.results.targets_seen == 8
        assert queue.pending == 0

    def test_drain_limit_batches(self, network, engine):
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine, capacity=10, auto_drain=False)
        dataset.add_new_address_hook(queue.on_sighting)
        for index in range(6):
            dataset.record(parse("2001:db8::") + index, 0.0, "Germany")
        assert queue.drain(limit=4) == 4
        assert queue.pending == 2

    def test_auto_drain_keeps_queue_empty(self, network, engine):
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine, capacity=2)
        dataset.add_new_address_hook(queue.on_sighting)
        for index in range(10):
            dataset.record(parse("2001:db8::") + index, 0.0, "Germany")
        assert queue.pending == 0
        assert queue.stats.dropped == 0
        assert queue.stats.scanned == 10


class TestSamplingDenominators:
    def test_targets_seen_consistent_across_paths(self, network, engine):
        """dropped + fed both land in targets_seen once."""
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine, capacity=150, auto_drain=False)
        dataset.add_new_address_hook(queue.on_sighting)
        total = 200
        for index in range(total):
            dataset.record(parse("2001:db8::") + index, 0.0, "Germany")
        queue.drain()
        stats = queue.stats
        assert stats.triggered == total
        assert queue.results.targets_seen == total
        assert stats.dropped == 50
        assert stats.processed + stats.dropped == total
        # Every queued target reached the engine exactly once.
        assert engine.stats.targets_offered == stats.processed
        assert stats.scanned == engine.stats.targets_scanned
