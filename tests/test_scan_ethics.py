"""Tests for the ethics machinery: opt-out list, scanner identity."""

import random

import pytest

from repro.ipv6 import parse
from repro.net.rdns import ReverseDns
from repro.scan.engine import ScanEngine
from repro.scan.ethics import (
    INFO_TITLE,
    EthicsPolicy,
    OptOutList,
    publish_scanner_identity,
)
from repro.scan.modules.http import scan_http
from repro.scan.result import ScanResults
from repro.world import devices as dev

SRC = parse("2001:db8:5c::1")
PREFIX = parse("2001:db8:900::")


class TestOptOutList:
    def test_single_address(self):
        opt_out = OptOutList()
        opt_out.add(parse("2001:db8::1"))
        assert opt_out.blocked(parse("2001:db8::1"))
        assert not opt_out.blocked(parse("2001:db8::2"))

    def test_prefix_blocks_everything_inside(self):
        opt_out = OptOutList()
        opt_out.add(parse("2001:db8:900::"), 48)
        assert opt_out.blocked(parse("2001:db8:900:42::dead"))
        assert not opt_out.blocked(parse("2001:db8:901::1"))

    def test_cidr_text(self):
        opt_out = OptOutList()
        opt_out.add_network("2001:db8:900::/48")
        opt_out.add_network("2001:db8:aaaa::5")
        assert opt_out.blocked(parse("2001:db8:900::1"))
        assert opt_out.blocked(parse("2001:db8:aaaa::5"))
        assert len(opt_out) == 2

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            OptOutList().add(0, 129)


class TestPolicyInEngine:
    def test_opted_out_target_never_probed(self, network):
        rng = random.Random(1)
        device = dev.make_fritzbox(rng, 0, 0x3C3786400001)
        device.assign_address(PREFIX, rng)
        device.materialize(network)

        policy = EthicsPolicy()
        policy.opt_out.add(device.address)
        packets = []
        network.add_tap(lambda record: packets.append(record)
                        if record.dst == device.address else None)
        engine = ScanEngine(network, SRC, ethics=policy)
        results = ScanResults()
        assert engine.feed(device.address, results) is False
        assert policy.suppressed == 1
        assert packets == []
        assert results.responsive_addresses("http") == set()

    def test_opt_out_mid_campaign(self, network):
        rng = random.Random(1)
        device = dev.make_fritzbox(rng, 0, 0x3C3786400002)
        device.assign_address(PREFIX, rng)
        device.materialize(network)
        policy = EthicsPolicy()
        engine = ScanEngine(network, SRC, ethics=policy)
        results = ScanResults()
        assert engine.feed(device.address, results) is True
        policy.opt_out.add_network("2001:db8:900::/48")
        network.clock.advance(4 * 86_400)
        assert engine.feed(device.address, results) is False

    def test_engine_without_policy_unchanged(self, network, metrics):
        engine = ScanEngine(network, SRC)
        results = ScanResults()
        engine.feed(parse("2001:db8:901::1"), results)
        assert metrics.value("scheduler_admitted_total", engine="engine") == 1


class TestScannerIdentity:
    def test_info_page_served(self, network):
        publish_scanner_identity(network, SRC)
        grab = scan_http(network, parse("2001:db8::77"), SRC)
        assert grab.ok
        assert grab.title == INFO_TITLE

    def test_rdns_published(self, network):
        rdns = ReverseDns()
        publish_scanner_identity(network, SRC, rdns)
        assert rdns.identifies_research(SRC)

    def test_idempotent(self, network):
        publish_scanner_identity(network, SRC)
        publish_scanner_identity(network, SRC)  # must not double-bind

    def test_pipeline_scanner_is_identifiable(self, experiment):
        """Anyone probing the study's scanner finds the explanation."""
        rdns = experiment.world.rdns
        candidates = [
            address for address in getattr(rdns, "_records", {})
            if rdns.identifies_research(address)
        ]
        assert candidates
        grab = scan_http(experiment.world.network,
                         parse("2001:db8::7777"), candidates[0])
        assert grab.ok and grab.title == INFO_TITLE
