"""The executor's refused-probe shortcut against the full probe path.

A probe whose spec carries its module's refused grab is answered
without running the module when the network settles the attempt as
refused.  For every default probe and the ``ntp`` probe, against a
target with no host, an unreachable host, a reachable host with the
port closed and an address inside an aliased /64, the shortcut must be
indistinguishable from running the module: the same grab field for
field, the same metrics and the same next ephemeral port.  With a tap
attached or a lossy network the shortcut must stay off, so tap records
and loss draws match too.
"""

import dataclasses
import random

import pytest

from repro.ipv6 import parse
from repro.net.clock import VirtualClock
from repro.net.simnet import Network, SimpleSession
from repro.obs.metrics import use_registry
from repro.runtime.registry import ProbeRegistry, ProbeSpec, default_registry
from repro.scan.engine import EngineConfig, ScanEngine
from repro.scan.modules.ntp import refused_ntp, scan_ntp

SRC = parse("2001:db8:5c::1")
NO_HOST = parse("2001:db8:700::1")
UNREACHABLE = parse("2001:db8:700::2")
CLOSED = parse("2001:db8:700::3")
OPEN = parse("2001:db8:700::4")
WILDCARD_PREFIX = parse("2001:db8:701::")

TARGETS = {
    "no-host": NO_HOST,
    "unreachable": UNREACHABLE,
    "port-closed": CLOSED,
    "wildcard": WILDCARD_PREFIX + 0x1234,
}

SPECS = tuple(default_registry()) + (
    ProbeSpec(name="ntp", probe=scan_ntp, port=123, refused=refused_ntp),)
#: CoAP and NTP probe over UDP; every other probe connects over TCP.
UDP_PORTS = {5683, 123}
TCP_PORTS = {spec.port for spec in SPECS} - UDP_PORTS


class _SilentService:
    """Accepts every connection; the session never answers."""

    def accept(self, peer, peer_port):
        return SimpleSession(respond=lambda data: None)


def _network(*, loss_rate=0.0, seed=9):
    network = Network(VirtualClock(start=1234.5), loss_rate=loss_rate,
                      rng=random.Random(seed))
    network.add_host(SRC)
    # Every probe's port is open, each on its probe's transport only.
    for host in (network.add_host(UNREACHABLE, reachable=False),
                 network.add_host(OPEN)):
        for port in TCP_PORTS:
            host.bind_tcp(port, _SilentService())
        for port in UDP_PORTS:
            host.bind_udp(port, lambda datagram: None)
    # Reachable, but only an unrelated port is open.
    network.add_host(CLOSED).bind_tcp(9, _SilentService())
    network.add_wildcard_host(WILDCARD_PREFIX).bind_tcp(9, _SilentService())
    return network


def _scan(network, spec, target, *, shortcut):
    """One probe through the executor; (grab, module calls, metrics)."""
    calls = []

    def probe(*args):
        calls.append(args)
        return spec.probe(*args)

    refused = spec.refused if shortcut else None
    registry = ProbeRegistry([dataclasses.replace(spec, probe=probe,
                                                  refused=refused)])
    with use_registry() as metrics:
        engine = ScanEngine(network, SRC, EngineConfig(drive_clock=False),
                            registry=registry)
        (grab,) = engine.scan_address(target)
    return grab, len(calls), metrics.snapshot()


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
class TestRefusedShortcut:
    def test_matches_module_grab_without_dispatch(self, spec, target):
        full_net, fast_net = _network(), _network()
        full, full_calls, full_metrics = _scan(
            full_net, spec, TARGETS[target], shortcut=False)
        fast, fast_calls, fast_metrics = _scan(
            fast_net, spec, TARGETS[target], shortcut=True)
        assert (full_calls, fast_calls) == (1, 0)
        assert type(fast) is type(full)
        assert dataclasses.astuple(fast) == dataclasses.astuple(full)
        assert (fast.protocol, fast.ok, fast.time) == \
            (full.protocol, False, 1234.5)
        assert fast_metrics == full_metrics
        assert fast_net.ephemeral_port() == full_net.ephemeral_port()

    @pytest.mark.parametrize("mode", ["tap", "loss"])
    def test_observed_network_takes_full_path(self, spec, target, mode):
        loss_rate = 0.5 if mode == "loss" else 0.0
        full_net = _network(loss_rate=loss_rate)
        fast_net = _network(loss_rate=loss_rate)
        full_records, fast_records = [], []
        if mode == "tap":
            full_net.add_tap(full_records.append)
            fast_net.add_tap(fast_records.append)
        full, _, _ = _scan(full_net, spec, TARGETS[target], shortcut=False)
        fast, fast_calls, _ = _scan(fast_net, spec, TARGETS[target],
                                    shortcut=True)
        assert fast_calls == 1
        assert fast == full
        assert fast_records == full_records
        assert fast_net._rng.getstate() == full_net._rng.getstate()
        assert fast_net.ephemeral_port() == full_net.ephemeral_port()


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_open_port_runs_the_module(spec):
    network = _network()
    _, calls, _ = _scan(network, spec, OPEN, shortcut=True)
    assert calls == 1


@dataclasses.dataclass(frozen=True)
class _TelnetGrab:
    address: int
    time: float
    ok: bool
    protocol: str = "telnet"


def test_spec_without_refused_grab_always_runs():
    """A spec registered without a refused grab (the README's telnet
    recipe) keeps the full probe path, refused or not."""
    calls = []

    def scan_telnet(network, source, target):
        calls.append(target)
        stream = network.tcp_connect(source, target, 23)
        return _TelnetGrab(target, network.clock.now(), stream is not None)

    registry = ProbeRegistry()
    registry.register("telnet", scan_telnet, 23)
    engine = ScanEngine(_network(), SRC, EngineConfig(drive_clock=False),
                        registry=registry)
    targets = [TARGETS[name] for name in sorted(TARGETS)]
    results = engine.run(targets)
    assert calls == targets
    assert results.grabs("telnet") == [
        _TelnetGrab(target, 1234.5, False) for target in targets]
