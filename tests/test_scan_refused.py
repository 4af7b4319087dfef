"""The probe loop's refused-probe shortcut against the full probe path.

A probe whose spec carries its module's refused grab is settled without
running the module when the network settles the attempt as refused.  A
refused probe leaves no grab in a result set, whichever path it takes,
so the two paths are compared on what does remain.  For every default
probe and the ``ntp`` probe, against a target with no host, an
unreachable host, a reachable host with the port closed and an address
inside an aliased /64:

* neither path hands ``add`` anything;
* the module's own refused grab, captured from the dispatched path's
  probe, equals ``spec.refused(target, now, port)``: the sample a
  store renders a settled probe's record from;
* the metrics and the next ephemeral port are equal, and with a store
  attached the WAL bytes are too.

With a tap attached or a lossy network the shortcut must stay off, so
tap records and loss draws match as well.
"""

import dataclasses
import random

import pytest

from repro.ipv6 import parse
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.obs.metrics import use_registry
from repro.runtime.registry import ProbeRegistry, ProbeSpec, default_registry
from repro.scan.engine import ScanEngine
from repro.scan.modules.ntp import refused_ntp, scan_ntp
from repro.store.runstore import RunStore
from repro.store.writer import StoreWriter
from tests.net_reference import SimpleSession

SRC = parse("2001:db8:5c::1")
NO_HOST = parse("2001:db8:700::1")
UNREACHABLE = parse("2001:db8:700::2")
CLOSED = parse("2001:db8:700::3")
OPEN = parse("2001:db8:700::4")
WILDCARD_PREFIX = parse("2001:db8:701::")
#: The clock every probe here runs at.
NOW = 1234.5

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
    network = Network(VirtualClock(start=NOW), loss_rate=loss_rate,
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


def _scan(network, spec, target, *, shortcut, run_dir=None):
    """One probe through the probe loop: (what it handed ``add``, the
    grabs the module returned, the metrics snapshot).  With ``run_dir``
    the engine logs into a fresh store there."""
    returned = []

    def probe(*args):
        grab = spec.probe(*args)
        returned.append(grab)
        return grab

    refused = spec.refused if shortcut else None
    registry = ProbeRegistry([dataclasses.replace(spec, probe=probe,
                                                  refused=refused)])
    with use_registry() as metrics:
        engine = ScanEngine(network, SRC, registry=registry)
        writer = None
        if run_dir is not None:
            writer = StoreWriter(RunStore.create(run_dir, config={},
                                                 cooldown_ttl=0.0))
            engine.attach_store(writer, label="ntp")
        added = []
        engine.execute_into(target, added.append)
        if writer is not None:
            writer.close()
    return added, returned, metrics.snapshot()


def _wal_bytes(run_dir):
    return {path.name: path.read_bytes()
            for path in sorted((run_dir / "wal").iterdir())}


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
class TestRefusedShortcut:
    def test_matches_module_grab_without_dispatch(self, spec, target):
        full_net, fast_net = _network(), _network()
        full_added, full_grabs, full_metrics = _scan(
            full_net, spec, TARGETS[target], shortcut=False)
        fast_added, fast_grabs, fast_metrics = _scan(
            fast_net, spec, TARGETS[target], shortcut=True)
        assert (full_added, fast_added) == ([], [])
        assert (len(full_grabs), fast_grabs) == (1, [])
        (module_grab,) = full_grabs
        sample = spec.refused(TARGETS[target], NOW, spec.port)
        assert type(module_grab) is type(sample)
        assert dataclasses.astuple(module_grab) == \
            dataclasses.astuple(sample)
        assert (module_grab.protocol, module_grab.ok) == \
            (spec.name, False)
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
        full_added, full_grabs, full_metrics = _scan(
            full_net, spec, TARGETS[target], shortcut=False)
        fast_added, fast_grabs, fast_metrics = _scan(
            fast_net, spec, TARGETS[target], shortcut=True)
        assert len(fast_grabs) == 1
        assert fast_grabs == full_grabs
        assert (fast_added, full_added) == ([], [])
        assert fast_metrics == full_metrics
        assert fast_records == full_records
        assert fast_net._rng.getstate() == full_net._rng.getstate()
        assert fast_net.ephemeral_port() == full_net.ephemeral_port()


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_settled_probe_logs_the_module_grab(spec, target, tmp_path):
    full_added, _, full_metrics = _scan(
        _network(), spec, TARGETS[target], shortcut=False,
        run_dir=tmp_path / "full")
    fast_added, fast_grabs, fast_metrics = _scan(
        _network(), spec, TARGETS[target], shortcut=True,
        run_dir=tmp_path / "fast")
    assert (full_added, fast_added, fast_grabs) == ([], [], [])
    assert _wal_bytes(tmp_path / "fast") == _wal_bytes(tmp_path / "full")
    assert fast_metrics == full_metrics


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_open_port_runs_the_module(spec):
    network = _network()
    added, grabs, _ = _scan(network, spec, OPEN, shortcut=True)
    assert len(grabs) == 1
    # The silent services never answer: the dispatched grab is refused,
    # and add gets exactly the answered grabs.
    assert added == [grab for grab in grabs if grab.ok] == []


@dataclasses.dataclass(frozen=True)
class _TelnetGrab:
    address: int
    time: float
    ok: bool
    protocol: str = "telnet"


def test_spec_without_refused_grab_always_runs():
    """A spec registered without a refused grab (the README's telnet
    recipe) keeps the full probe path, refused or not, and its bucket
    appears with its first answered grab."""
    calls = []

    def scan_telnet(network, source, target):
        calls.append(target)
        stream = network.tcp_connect(source, target, 23)
        return _TelnetGrab(target, network.clock.now(), stream is not None)

    registry = ProbeRegistry()
    registry.register("telnet", scan_telnet, 23)
    network = _network()
    engine = ScanEngine(network, SRC, registry=registry)
    targets = [TARGETS[name] for name in sorted(TARGETS)]
    results = engine.run(targets)
    assert calls == targets
    assert "telnet" not in results.protocols()
    assert results.targets_seen == len(targets)
    network.add_host(OPEN + 1).bind_tcp(23, _SilentService())
    engine.feed(OPEN + 1, results)
    assert results.grabs("telnet") == [_TelnetGrab(OPEN + 1, NOW, True)]
