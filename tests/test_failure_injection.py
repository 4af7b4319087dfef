"""Failure-injection tests: packet loss, dead services and mid-scan
churn."""

import random

from repro.core.campaign import CampaignConfig, CollectionCampaign
from repro.ipv6 import parse
from repro.net.simnet import Network
from repro.ntp.client import NtpClient
from repro.ntp.server import NtpServer
from repro.scan.engine import ScanEngine
from repro.scan.result import ScanResults
from repro.world import devices as dev
from tests.net_reference import SimpleSession, advance

SRC = parse("2001:db8:5c::1")
PREFIX = parse("2001:db8:700::")


def _lossy_network(loss_rate):
    return Network(loss_rate=loss_rate, rng=random.Random(99))


class TestLossyScans:
    def test_scans_degrade_not_crash(self):
        network = _lossy_network(0.4)
        rng = random.Random(3)
        devices = []
        for index in range(30):
            device = dev.make_fritzbox(rng, index, 0x3C3786100000 + index)
            device.assign_address(PREFIX + (index << 64), rng)
            device.materialize(network)
            devices.append(device)
        engine = ScanEngine(network, SRC)
        results = engine.run([d.address for d in devices])
        hits = len(results.responsive_addresses("http"))
        assert 0 < hits < 30  # some succeed, some are lost

    def test_zero_loss_full_hits(self):
        network = Network()
        rng = random.Random(3)
        addresses = []
        for index in range(10):
            device = dev.make_fritzbox(rng, index, 0x3C3786200000 + index)
            device.assign_address(PREFIX + (index << 64), rng)
            device.materialize(network)
            addresses.append(device.address)
        engine = ScanEngine(network, SRC)
        results = engine.run(addresses)
        assert len(results.responsive_addresses("http")) == 10

    def test_lossy_ntp_sync_sometimes_fails(self):
        network = _lossy_network(0.5)
        NtpServer(network, parse("2001:500::1"), location="X")
        client = NtpClient(network, parse("2001:db8::c"))
        outcomes = [client.query(parse("2001:500::1")) for _ in range(60)]
        assert any(o is None for o in outcomes)
        assert any(o is not None for o in outcomes)


class TestMidScanChurn:
    def test_scan_after_rehome_misses_old_address(self):
        network = Network()
        rng = random.Random(5)
        device = dev.make_fritzbox(rng, 0, 0x3C3786300001)
        device.assign_address(PREFIX, rng)
        device.materialize(network)
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        old = device.address
        assert engine.feed(old, results)
        device.rehome(network, parse("2001:db8:701::"), rng)
        # A stale re-discovery of the old address now fails everywhere.
        advance(network.clock, 4 * 86_400)
        assert engine.feed(old, results)
        assert len(results.responsive_addresses("http")) == 1

    def test_campaign_with_lossy_network(self):
        """A lossy fabric slows collection but nothing breaks."""
        from repro.world.population import build_world
        from tests.conftest import small_world_config

        world = build_world(small_world_config(scale=0.05))
        world.network.loss_rate = 0.3
        campaign = CollectionCampaign(
            world, CampaignConfig(days=2, wire_fraction=0.3, seed=8))
        report = campaign.run()
        assert len(report.dataset) > 0


class TestBrokenServices:
    def test_stopped_ntp_server_collects_nothing(self, network):
        from repro.core.collector import CaptureServer, CollectedDataset

        dataset = CollectedDataset()
        CaptureServer(network, parse("2001:500::9"), "X", dataset)
        network.remove_host(parse("2001:500::9"))
        client = NtpClient(network, parse("2001:db8::d"))
        assert client.query(parse("2001:500::9")) is None
        assert len(dataset) == 0

    def test_garbage_speaking_service_yields_failed_grabs(self, network):

        class GarbageService:
            def accept(self, peer, peer_port):
                return SimpleSession(respond=lambda data: b"\x00\xff\x13",
                                     banner=b"\x00garbage\x00")

        target = parse("2001:db8:702::1")
        host = network.add_host(target)
        for port in (22, 80, 443, 1883, 5672):
            host.bind_tcp(port, GarbageService())
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        engine.feed(target, results)
        for protocol in ("http", "https", "ssh", "mqtt", "amqp"):
            assert results.responsive_addresses(protocol) == set(), protocol
