"""Tests for the pluggable probe registry.

Covers the acceptance path: registering a custom probe and running a
narrowed (SSH+CoAP-only) campaign without touching engine internals.
"""

import random
from dataclasses import dataclass

import pytest

from repro.ipv6 import parse
from repro.runtime.registry import ProbeRegistry, ProbeSpec, default_registry
from repro.scan.engine import ScanEngine
from repro.scan.result import PROTOCOLS
from repro.world import devices as dev
from tests.net_reference import SimpleSession

SRC = parse("2001:db8:5c::1")
PREFIX = parse("2001:db8:600::")


def unregister(registry, name):
    """Remove a probe from ``registry``; unknown names raise KeyError."""
    try:
        return registry._specs.pop(name)
    except KeyError:
        raise KeyError(f"no probe named {name!r}") from None


class TestRegistry:
    def test_default_registry_matches_paper_order(self):
        assert tuple(spec.name for spec in default_registry()) == PROTOCOLS

    def test_register_and_unregister(self):
        registry = ProbeRegistry()
        spec = registry.register("telnet", lambda n, s, t: None, 23)
        assert "telnet" in registry
        assert registry.get("telnet") is spec
        unregister(registry, "telnet")
        assert "telnet" not in registry

    def test_duplicate_name_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError, match="already registered"):
            registry.register("ssh", lambda n, s, t: None, 22)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            default_registry().get("gopher")
        with pytest.raises(KeyError):
            unregister(default_registry(), "gopher")

    def test_subset_preserves_given_order(self):
        registry = default_registry().subset("coap", "ssh")
        assert tuple(spec.name for spec in registry) == ("coap", "ssh")

    def test_subset_is_independent(self):
        base = default_registry()
        narrowed = base.subset("ssh")
        unregister(narrowed, "ssh")
        assert "ssh" in base

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProbeSpec(name="", probe=lambda n, s, t: None, port=1)


@dataclass(frozen=True)
class TelnetGrab:
    """A custom grab: only the routing/aggregate attributes matter."""

    address: int
    time: float
    ok: bool
    banner: str = ""
    protocol: str = "telnet"
    port: int = 23


def scan_telnet(network, source, target):
    """A new protocol module, written without touching the engine."""
    now = network.clock.now()
    stream = network.tcp_connect(source, target, 23)
    if stream is None:
        return TelnetGrab(address=target, time=now, ok=False)
    banner = stream.read_greeting().decode("ascii", "replace")
    return TelnetGrab(address=target, time=now, ok=True, banner=banner)


@pytest.fixture()
def rng():
    return random.Random(11)


@pytest.fixture()
def fritz(network, rng):
    device = dev.make_fritzbox(rng, 0, 0x3C3786001234)
    device.assign_address(PREFIX, rng)
    device.materialize(network)
    return device


class TestCustomProbe:
    def test_custom_probe_runs_and_routes(self, network, fritz):
        telnet_host = parse("2001:db8:601::23")
        host = network.add_host(telnet_host)
        host.bind_tcp(23, type("TelnetService", (), {
            "accept": staticmethod(
                lambda peer, peer_port: SimpleSession(
                    respond=lambda data: None, banner=b"login: "))
        })())

        registry = default_registry()
        registry.register("telnet", scan_telnet, 23)
        engine = ScanEngine(network, SRC, registry=registry)
        results = engine.run([fritz.address, telnet_host])

        assert results.responsive_addresses("telnet") == {telnet_host}
        grab = results.responsive("telnet")[0]
        assert grab.banner == "login: "
        # The paper protocols ran too, and the aggregates see everything.
        assert results.responsive_addresses("http") == {fritz.address}
        assert "telnet" in results.protocols()
        assert results.hit_rate() == pytest.approx(1.0)

    def test_ssh_coap_only_campaign(self, network, rng, metrics):
        """Narrowed campaign via the registry — no engine internals."""
        from repro.tlslib.keys import derive_key

        ssh_host = dev.make_ssh_host(
            rng, 0, os_name="Debian", software="OpenSSH_9.2p1",
            comment="Debian-2+deb12u3",
            host_key=derive_key("test|ssh"), ntp=False)
        ssh_host.assign_address(PREFIX, rng)
        ssh_host.materialize(network)
        coap_device = dev.make_coap_device(
            rng, 0, resources=["/sensors/temp"], group="sensor", ntp=False)
        coap_device.assign_address(PREFIX + (1 << 64), rng)
        coap_device.materialize(network)

        engine = ScanEngine(network, SRC,
                            registry=default_registry().subset("ssh", "coap"))
        results = engine.run([ssh_host.address, coap_device.address],
                             label="ssh+coap")

        # 2 targets x 2 protocols
        assert sum(probes.value for _, probes in
                   metrics.find("probe_attempts_total")) == 4
        assert results.responsive_addresses("ssh") == {ssh_host.address}
        assert results.responsive_addresses("coap") == {coap_device.address}
        assert results.http == [] and results.mqtt == []

    def test_experiment_with_protocol_profile(self):
        """The full pipeline accepts a probe profile end to end."""
        from repro.core.campaign import CampaignConfig
        from repro.core.pipeline import ExperimentConfig, run_experiment
        from repro.world.population import WorldConfig

        result = run_experiment(ExperimentConfig(
            world=WorldConfig(seed=20240720, scale=0.05),
            campaign=CampaignConfig(days=4, wire_fraction=0.0),
            include_rl=False, gap_days=0, lead_days=3, final_days=1,
            protocols=("ssh", "coap"),
        ))
        assert result.hitlist_scan.http == []
        assert result.ntp_scan.http == []
        assert len(result.hitlist_scan.responsive_addresses("ssh")) > 0
