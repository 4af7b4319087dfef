"""The one-step settle of an all-refused target against the per-probe loop.

When the network refuses every port of the plan and every probe carries
its module's refused grab, :meth:`ScanEngine.execute_into` settles the
whole target at once: each attempt counter goes up by one, the plan's
ephemeral ports are taken in one call and, with a store attached, the
refused-record writer gets every member in one call.  The reference is
the same engine with the one-step settle switched off, so every target
goes through the per-probe loop.  With the full default registry and
the port counter started at 65530, so the ports wrap from 65535 to
49152 inside a target, both sides must leave the same answered grabs,
metrics snapshot, next ephemeral port and WAL bytes, for a target with
no host, an unreachable host, a host bound only on a port outside the
plan, a host with one plan port open and an address in an aliased /64.
"""

import pytest

from repro.ipv6 import parse
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.obs.metrics import use_registry
from repro.proto.http import HttpSessionFactory
from repro.proto.tls_session import PlainService
from repro.runtime.registry import default_registry
from repro.scan.engine import ScanEngine
from repro.store.runstore import RunStore
from repro.store.writer import StoreWriter
from tests.net_reference import SimpleSession

SRC = parse("2001:db8:5d::1")
NOW = 4321.0
#: Six ports before the wrap: every 8-probe target crosses it.
FIRST_PORT = 65530
WILDCARD_PREFIX = parse("2001:db8:801::")

TARGETS = {
    "no-host": parse("2001:db8:800::1"),
    "unreachable": parse("2001:db8:800::2"),
    "ntp-only": parse("2001:db8:800::3"),
    "http-open": parse("2001:db8:800::4"),
    "wildcard": WILDCARD_PREFIX + 0x99,
}
#: The targets the network refuses on every port of the plan.
ALL_REFUSED = ("no-host", "unreachable", "ntp-only", "wildcard")


class _SilentService:
    """Accepts every connection; the session never answers."""

    def accept(self, peer, peer_port):
        return SimpleSession(respond=lambda data: None)


def _network():
    network = Network(VirtualClock(start=NOW))
    network.add_host(SRC)
    network._ephemeral = FIRST_PORT
    unreachable = network.add_host(TARGETS["unreachable"], reachable=False)
    for spec in default_registry():
        if spec.name == "coap":
            unreachable.bind_udp(spec.port, lambda datagram: None)
        else:
            unreachable.bind_tcp(spec.port, _SilentService())
    network.add_host(TARGETS["ntp-only"]).bind_udp(
        123, lambda datagram: None)
    network.add_host(TARGETS["http-open"]).bind_tcp(
        80, PlainService(HttpSessionFactory("Router")))
    network.add_wildcard_host(WILDCARD_PREFIX).bind_tcp(9, _SilentService())
    return network


def _scan(names, *, one_step, run_dir=None):
    """Run ``names``' targets, in order, through one engine: (the
    answered grabs, the metrics snapshot, the next ephemeral port, the
    port calls ``(ephemeral_port, skip_ephemeral_ports)``)."""
    network = _network()
    calls = {"ephemeral_port": 0, "skip_ephemeral_ports": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(network, name)):
            calls[_name] += 1
            return _inner(*args)
        setattr(network, name, counted)
    added = []
    with use_registry() as metrics:
        engine = ScanEngine(network, SRC, registry=default_registry())
        writer = None
        if run_dir is not None:
            writer = StoreWriter(RunStore.create(run_dir, config={},
                                                 cooldown_ttl=0.0))
            engine.attach_store(writer, label="ntp")
        if not one_step:
            plan, write_refused, _ = engine._build_plan()
            engine._plan = (plan, write_refused, None)
        for name in names:
            engine.execute_into(TARGETS[name], added.append)
        if writer is not None:
            writer.close()
    port = network._ephemeral
    return added, metrics.snapshot(), port, calls


def _wal_bytes(run_dir):
    return {path.name: path.read_bytes()
            for path in sorted((run_dir / "wal").iterdir())}


def test_plan_has_a_settle_over_every_member():
    with use_registry():
        engine = ScanEngine(_network(), SRC)
        plan, _, settle = engine._build_plan()
    ports, counters, members = settle
    specs = list(default_registry())
    assert ports == {spec.port for spec in specs}
    assert counters == tuple(entry[3] for entry in plan)
    assert members == tuple(range(len(specs)))


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_one_step_matches_the_per_probe_loop(name, tmp_path):
    for run_dir in (None, tmp_path):
        loop = _scan([name], one_step=False,
                     run_dir=run_dir and run_dir / "loop")
        fast = _scan([name], one_step=True,
                     run_dir=run_dir and run_dir / "fast")
        assert fast[:3] == loop[:3]
        if run_dir is not None:
            assert _wal_bytes(run_dir / "fast") == \
                _wal_bytes(run_dir / "loop")
    # Eight probes from 65530: 65530-65535, then 49152 and 49153.
    assert fast[2] == 49154
    if name in ALL_REFUSED:
        assert fast[0] == []
        assert fast[3] == {"ephemeral_port": 0, "skip_ephemeral_ports": 1}
    else:
        assert [grab.protocol for grab in fast[0]] == ["http"]
        assert fast[3]["skip_ephemeral_ports"] == 0
    assert loop[3]["skip_ephemeral_ports"] == 0


def test_target_sequence_matches_the_per_probe_loop(tmp_path):
    names = ["http-open", "no-host", "ntp-only", "unreachable",
             "wildcard", "http-open", "no-host"]
    loop = _scan(names, one_step=False, run_dir=tmp_path / "loop")
    fast = _scan(names, one_step=True, run_dir=tmp_path / "fast")
    assert fast[:3] == loop[:3]
    assert _wal_bytes(tmp_path / "fast") == _wal_bytes(tmp_path / "loop")
    assert len(fast[0]) == 2
    assert fast[3]["skip_ephemeral_ports"] == 5


def test_skip_matches_single_ports_across_the_wrap():
    for start in (49152, 60000, 65530, 65535):
        for count in (0, 1, 8, 16384, 16390):
            single, batch = Network(), Network()
            single._ephemeral = batch._ephemeral = start
            for _ in range(count):
                single.ephemeral_port()
            batch.skip_ephemeral_ports(count)
            assert batch.ephemeral_port() == single.ephemeral_port()
