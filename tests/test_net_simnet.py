"""Unit tests for the simulated network fabric."""

import random

import pytest

from repro.ipv6 import parse
from repro.net.packet import Datagram, Transport
from repro.net.simnet import Network
from tests.net_reference import SimpleSession

SRC = parse("2001:db8::1")
DST = parse("2001:db8::2")


class _EchoService:
    def accept(self, peer, peer_port):
        return SimpleSession(respond=lambda data: b"echo:" + data)


class TestHosts:
    def test_add_host_idempotent(self, network):
        first = network.add_host(DST)
        second = network.add_host(DST)
        assert first is second
        assert len(network._hosts) == 1

    def test_remove_host(self, network):
        network.add_host(DST)
        network.remove_host(DST)
        assert network.host(DST) is None

    def test_move_host_keeps_services(self, network):
        host = network.add_host(DST)
        host.bind_udp(99, lambda datagram: b"pong")
        network.move_host(DST, SRC)
        assert network.host(DST) is None
        assert network.udp_request(parse("2001:db8::9"), SRC, 99, b"ping") == \
            b"pong"

    def test_move_missing_host_raises(self, network):
        with pytest.raises(KeyError):
            network.move_host(DST, SRC)

    def test_double_bind_rejected(self, network):
        host = network.add_host(DST)
        host.bind_udp(1, lambda d: None)
        with pytest.raises(ValueError):
            host.bind_udp(1, lambda d: None)


class TestUdp:
    def test_request_response(self, network):
        network.add_host(DST).bind_udp(53, lambda d: b"answer:" + d.payload)
        assert network.udp_request(SRC, DST, 53, b"q") == b"answer:q"

    def test_unbound_port_silent(self, network):
        network.add_host(DST)
        assert network.udp_request(SRC, DST, 53, b"q") is None

    def test_missing_host_silent(self, network):
        assert network.udp_request(SRC, DST, 53, b"q") is None

    def test_unreachable_host_silent(self, network):
        network.add_host(DST, reachable=False).bind_udp(53, lambda d: b"x")
        assert network.udp_request(SRC, DST, 53, b"q") is None

    def test_handler_may_decline(self, network):
        network.add_host(DST).bind_udp(53, lambda d: None)
        assert network.udp_request(SRC, DST, 53, b"q") is None

    def test_reply_swaps_endpoints(self):
        datagram = Datagram(src=SRC, src_port=1000, dst=DST, dst_port=53,
                            payload=b"q")
        reply = datagram.reply(b"a")
        assert (reply.src, reply.src_port) == (DST, 53)
        assert (reply.dst, reply.dst_port) == (SRC, 1000)


class TestTcp:
    def test_connect_and_exchange(self, network):
        network.add_host(DST).bind_tcp(80, _EchoService())
        stream = network.tcp_connect(SRC, DST, 80)
        assert stream is not None
        assert stream.write(b"hello") == b"echo:hello"

    def test_greeting(self, network):
        class BannerService:
            def accept(self, peer, peer_port):
                return SimpleSession(respond=lambda d: None, banner=b"HELLO\n")

        network.add_host(DST).bind_tcp(22, BannerService())
        stream = network.tcp_connect(SRC, DST, 22)
        assert stream.read_greeting() == b"HELLO\n"
        assert stream.read_greeting() == b""  # consumed

    def test_connect_refused_when_unbound(self, network):
        network.add_host(DST)
        assert network.tcp_connect(SRC, DST, 80) is None

    def test_connect_refused_when_unreachable(self, network):
        network.add_host(DST, reachable=False).bind_tcp(80, _EchoService())
        assert network.tcp_connect(SRC, DST, 80) is None

    def test_closed_stream_rejects_writes(self, network):
        class OneShot:
            def accept(self, peer, peer_port):
                session = SimpleSession(respond=lambda d: b"bye")
                original = session.on_data

                def respond_and_close(data):
                    session.closed = True
                    return original(data)

                session.on_data = respond_and_close
                return session

        network.add_host(DST).bind_tcp(80, OneShot())
        stream = network.tcp_connect(SRC, DST, 80)
        assert stream.write(b"x") == b"bye"
        with pytest.raises(ConnectionResetError):
            stream.write(b"y")


class TestTaps:
    def test_tap_sees_udp_roundtrip(self, network):
        records = []
        network.add_tap(records.append)
        network.add_host(DST).bind_udp(53, lambda d: b"a")
        network.udp_request(SRC, DST, 53, b"q")
        assert len(records) == 2
        assert records[0].transport is Transport.UDP
        assert records[0].dst == DST
        assert records[1].src == DST  # the response

    def test_tap_sees_syn(self, network):
        records = []
        network.add_tap(records.append)
        network.tcp_connect(SRC, DST, 443)  # refused, but attempted
        assert len(records) == 1
        assert records[0].syn is True
        assert records[0].dst_port == 443

    def test_remove_tap(self, network):
        records = []
        network.add_tap(records.append)
        network._taps.remove(records.append)
        network.udp_request(SRC, DST, 53, b"q")
        assert records == []


class TestLoss:
    def test_full_reliability_by_default(self, network):
        network.add_host(DST).bind_udp(53, lambda d: b"a")
        assert all(network.udp_request(SRC, DST, 53, b"q") == b"a"
                   for _ in range(50))

    def test_loss_drops_some(self):
        lossy = Network(loss_rate=0.5, rng=random.Random(1))
        lossy.add_host(DST).bind_udp(53, lambda d: b"a")
        outcomes = [lossy.udp_request(SRC, DST, 53, b"q") for _ in range(100)]
        assert any(outcome is None for outcome in outcomes)
        assert any(outcome == b"a" for outcome in outcomes)

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            Network(loss_rate=1.5)


class TestEphemeralPorts:
    def test_ports_in_dynamic_range(self, network):
        for _ in range(10):
            assert 49152 <= network.ephemeral_port() <= 65535

    def test_ports_wrap(self, network):
        network._ephemeral = 65535
        assert network.ephemeral_port() == 65535
        assert network.ephemeral_port() == 49152


class TestPortsToDeliver:
    """Which attempts on a host must really be delivered (the rest may
    be settled as refused)."""

    def test_missing_or_unreachable_host_refuses_every_port(self, network):
        network.add_host(DST, reachable=False).bind_tcp(80, _EchoService())
        assert not network.ports_to_deliver(network.host(SRC))
        assert not network.ports_to_deliver(network.host(DST))

    def test_bound_ports_on_either_transport(self, network):
        host = network.add_host(DST)
        assert not network.ports_to_deliver(host)
        host.bind_tcp(80, _EchoService())
        host.bind_udp(5683, lambda d: None)
        assert network.ports_to_deliver(host) == {80, 5683}
        wildcard = network.add_wildcard_host(parse("2001:db8:1::"))
        wildcard.bind_tcp(443, _EchoService())
        assert network.ports_to_deliver(
            network.host(parse("2001:db8:1::99"))) == {443}

    def test_observed_network_delivers_everything(self, network):
        network.add_tap(lambda record: None)
        assert network.ports_to_deliver(None) is None
        lossy = Network(loss_rate=0.1)
        assert lossy.ports_to_deliver(lossy.add_host(DST)) is None
