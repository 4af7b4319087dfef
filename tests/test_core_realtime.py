"""Tests for the real-time collection → scan coupling."""

import pytest

from repro.core.collector import CollectedDataset
from repro.core.realtime import RealTimeScanQueue
from repro.ipv6 import parse
from repro.scan.engine import ScanEngine

SRC = parse("2001:db8:5c::1")


@pytest.fixture()
def engine(network, metrics):
    return ScanEngine(network, SRC)


def _stage(metrics, kind):
    return metrics.value(f"stage_{kind}_total", stage="realtime-scan")


class TestCoupling:
    def test_new_address_triggers_scan(self, network, engine, metrics):
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine)
        dataset.add_new_address_hook(queue.on_sighting)
        dataset.record(parse("2001:db8::1"), 0.0, "Germany")
        assert _stage(metrics, "received") == 1
        assert metrics.value("scheduler_admitted_total", engine="engine") == 1
        assert queue.results.targets_seen == 1

    def test_repeat_sighting_not_rescanned(self, network, engine, metrics):
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine)
        dataset.add_new_address_hook(queue.on_sighting)
        dataset.record(parse("2001:db8::1"), 0.0, "Germany")
        dataset.record(parse("2001:db8::1"), 1.0, "India")
        assert _stage(metrics, "received") == 1

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
    def test_auto_drain_keeps_queue_empty(self, network, engine, metrics):
        """Sourcing never outruns the scanner: each sighting is scanned
        before the hook returns, so none waits and none drops."""
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine)
        scanned = []
        dataset.add_new_address_hook(queue.on_sighting)
        dataset.add_new_address_hook(
            lambda address, time, server: scanned.append(
                metrics.value("scheduler_admitted_total", engine="engine")))
        for index in range(10):
            dataset.record(parse("2001:db8::") + index, 0.0, "Germany")
        assert scanned == list(range(1, 11))
        assert _stage(metrics, "dropped") == 0


class TestSamplingDenominators:
    def test_targets_seen_consistent_across_paths(self, network, engine,
                                                  metrics):
        """Admitted and cooled-down sightings both land in targets_seen
        once."""
        dataset = CollectedDataset()
        queue = RealTimeScanQueue(engine)
        dataset.add_new_address_hook(queue.on_sighting)
        total = 200
        for index in range(total):
            dataset.record(parse("2001:db8::") + index, 0.0, "Germany")
        # A sighting of an address still in its cool-down (another
        # campaign's dataset, say) reaches the engine but is not scanned.
        for index in range(50):
            queue.on_sighting(parse("2001:db8::") + index, 1.0, "India")
        assert queue.results.targets_seen == total + 50
        assert _stage(metrics, "received") == total + 50
        assert _stage(metrics, "processed") == total + 50
        assert _stage(metrics, "dropped") == 0
        assert metrics.value("scheduler_admitted_total",
                             engine="engine") == total
        assert metrics.value("scheduler_cooldown_hits_total",
                             engine="engine") == 50
