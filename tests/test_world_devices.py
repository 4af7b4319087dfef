"""Unit tests for device models and their service surfaces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipv6 import eui64, parse
from repro.net.simnet import Network
from repro.scan.modules import (
    scan_amqp,
    scan_coap,
    scan_http,
    scan_https,
    scan_mqtt,
    scan_ssh,
)
from repro.tlslib.keys import derive_key
from repro.world import devices as dev

PREFIX = parse("2001:db8:100::")


@pytest.fixture()
def rng():
    return random.Random(42)


def place(network, device, rng, prefix=PREFIX):
    device.assign_address(prefix, rng)
    device.materialize(network)
    return device.address


SCAN_SRC = parse("2001:db8:f::1")


class TestAddressing:
    def test_eui64_embeds_mac(self, rng):
        mac = 0xB827EB000001
        device = dev.make_fritzbox(rng, 0, mac)
        device.assign_address(PREFIX, rng)
        assert eui64.extract_mac(device.address) == mac

    def test_privacy_changes_on_redraw(self, rng):
        device = dev.make_client_device(rng, 0, None, "v", addressing="privacy")
        first = device.assign_address(PREFIX, rng)
        second = device.assign_address(PREFIX, rng)
        assert first != second

    def test_eui64_stable_on_redraw(self, rng):
        device = dev.make_fritzbox(rng, 0, 0xB827EB000002)
        first = device.assign_address(PREFIX, rng)
        second = device.assign_address(PREFIX, rng)
        assert first == second

    def test_eui64_without_mac_rejected(self, rng):
        device = dev.Device(type_name="broken", addressing="eui64")
        with pytest.raises(ValueError):
            device.make_iid(rng)

    def test_unknown_mode_rejected(self, rng):
        device = dev.Device(type_name="broken", addressing="quantum")
        with pytest.raises(ValueError):
            device.make_iid(rng)

    def test_structured_small(self, rng):
        device = dev.make_dlink_router(rng, 0, 0x340804000001)
        device.assign_address(PREFIX, rng)
        assert device.address - device.prefix64 < 0x10000


class TestFritzbox(object):
    def test_web_on_both_ports(self, network, rng):
        device = dev.make_fritzbox(rng, 0, 0x3C3786000001)
        address = place(network, device, rng)
        http = scan_http(network, SCAN_SRC, address)
        assert http.ok and http.title == "FRITZ!Box"
        https = scan_https(network, SCAN_SRC, address)
        assert https.ok and https.tls.ok
        assert https.tls.self_signed
        assert https.title == "FRITZ!Box"

    def test_is_ntp_client(self, rng):
        assert dev.make_fritzbox(rng, 0, 1).is_ntp_client

    def test_unique_certs_per_device(self, network, rng):
        first = dev.make_fritzbox(rng, 1, 0x3C3786000001)
        second = dev.make_fritzbox(rng, 2, 0x3C3786000002)
        addr1 = place(network, first, rng)
        addr2 = place(network, second, rng, prefix=PREFIX + (1 << 64))
        fp1 = scan_https(network, SCAN_SRC, addr1).tls.fingerprint
        fp2 = scan_https(network, SCAN_SRC, addr2).tls.fingerprint
        assert fp1 != fp2


class TestDlink:
    def test_web_ui_but_no_ntp(self, network, rng):
        device = dev.make_dlink_router(rng, 0, 0x340804000001)
        address = place(network, device, rng)
        assert not device.is_ntp_client
        assert scan_http(network, SCAN_SRC, address).title == "D-LINK"
        https = scan_https(network, SCAN_SRC, address)
        assert https.ok and https.tls.ok and https.tls.self_signed


class TestClientDevice:
    def test_unreachable(self, network, rng):
        device = dev.make_client_device(rng, 0, 0x0C47C9000001, "Amazon")
        address = place(network, device, rng)
        assert not scan_http(network, SCAN_SRC, address).ok
        assert not scan_ssh(network, SCAN_SRC, address).ok
        assert device.is_ntp_client
        assert not device.has_services


class TestSshHost:
    def test_banner_and_key(self, network, rng):
        key = derive_key("test-host")
        device = dev.make_ssh_host(
            rng, 0, os_name="Debian", software="OpenSSH_9.2p1",
            comment="Debian-2+deb12u3", host_key=key, ntp=True)
        address = place(network, device, rng)
        grab = scan_ssh(network, SCAN_SRC, address)
        assert grab.ok
        assert grab.banner == "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3"
        assert grab.key_fingerprint == key.fingerprint


class TestBrokers:
    def test_open_mqtt(self, network, rng):
        device = dev.make_mqtt_broker(rng, 0, require_auth=False, tls=False,
                                      ntp=True, segment="consumer")
        address = place(network, device, rng)
        grab = scan_mqtt(network, SCAN_SRC, address)
        assert grab.ok and grab.open_access is True

    def test_secured_mqtt(self, network, rng):
        device = dev.make_mqtt_broker(rng, 0, require_auth=True, tls=False,
                                      ntp=True, segment="server")
        address = place(network, device, rng)
        grab = scan_mqtt(network, SCAN_SRC, address)
        assert grab.ok and grab.open_access is False

    def test_amqp_access_control(self, network, rng):
        device = dev.make_amqp_broker(rng, 0, require_auth=True, tls=False,
                                      ntp=False, segment="server")
        address = place(network, device, rng)
        grab = scan_amqp(network, SCAN_SRC, address)
        assert grab.ok and grab.open_access is False

    def test_mqtts_requires_cert(self, rng):
        device = dev.make_mqtt_broker(rng, 0, require_auth=False, tls=True,
                                      ntp=False, segment="server")
        assert device.mqtt.certificate is not None


class TestCoapDevice:
    def test_resources_advertised(self, network, rng):
        device = dev.make_coap_device(
            rng, 0, resources=("/castDeviceSearch", "/castSetup"),
            group="castdevice", ntp=True)
        address = place(network, device, rng)
        grab = scan_coap(network, SCAN_SRC, address)
        assert grab.ok
        assert grab.resources == ("/castDeviceSearch", "/castSetup")


class TestCdnFront:
    def test_tls_fails_without_sni(self, network, rng):
        front = dev.make_web_server(
            rng, 0, title=None, https=True, public_cert=True,
            hostname="front-0.cdn.sim", ntp=False, type_name="cdn_front",
            sni_required=True, segment="cdn")
        address = place(network, front, rng)
        grab = scan_https(network, SCAN_SRC, address)
        assert grab.ok            # the endpoint responded (alert)
        assert grab.tls is not None and not grab.tls.ok


class TestRehoming:
    def test_rehome_moves_services(self, network, rng):
        device = dev.make_fritzbox(rng, 0, 0x3C3786000009)
        old = place(network, device, rng)
        new_prefix = parse("2001:db8:200::")
        new = device.rehome(network, new_prefix, rng)
        assert new != old
        assert not scan_http(network, SCAN_SRC, old).ok
        assert scan_http(network, SCAN_SRC, new).ok

    def test_identity_stable_across_rehome(self, network, rng):
        device = dev.make_fritzbox(rng, 0, 0x3C378600000A)
        old = place(network, device, rng)
        old_fp = scan_https(network, SCAN_SRC, old).tls.fingerprint
        new = device.rehome(network, parse("2001:db8:201::"), rng)
        assert scan_https(network, SCAN_SRC, new).tls.fingerprint == old_fp

    def test_rotate_iid_only_for_privacy(self, network, rng):
        device = dev.make_fritzbox(rng, 0, 0x3C378600000B)
        place(network, device, rng)
        with pytest.raises(ValueError):
            device.rotate_iid(network, rng)


def _recording_network():
    """A network whose host lookups, moves and additions are logged."""
    network, calls = Network(), []
    for name in ("host", "move_host", "add_host"):
        def logged(*args, _name=name, _inner=getattr(network, name),
                   **kwargs):
            calls.append((_name, args, kwargs))
            return _inner(*args, **kwargs)
        setattr(network, name, logged)
    return network, calls


def _host_map(network):
    return {address: (host.address, host.reachable,
                      sorted(host.tcp_services), sorted(host.udp_handlers))
            for address, host in network._hosts.items()}


class TestPrivacyRotation:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 64 - 1),
           st.sampled_from(("coap", "cpe")), st.booleans(),
           st.one_of(st.just(0), st.integers(1, 2 ** 64 - 1)),
           st.lists(st.booleans(), min_size=1, max_size=6))
    def test_rotate_iid_matches_rehome_in_place(self, seed, prefix_bits,
                                                kind, materialized, stray,
                                                steps):
        """``rotate_iid`` equals ``rehome(network, prefix64, rng)``:
        the address, the /64, the network's host map, the RNG state and
        the host lookups, moves and additions, whether the device's
        host is in the network (a move) or not (a fresh
        materialization), and for a ``prefix64`` set with ``stray``
        bits below the /64 too."""
        sides = []
        for _ in range(2):
            rng = random.Random(seed)
            if kind == "coap":
                device = dev.make_coap_device(
                    rng, 0, resources=("/ping",), group="plug", ntp=True)
            else:
                device = dev.make_generic_cpe(rng, 0, None)
            network, calls = _recording_network()
            device.assign_address(prefix_bits << 64, rng)
            device.prefix64 |= stray
            if materialized:
                device.materialize(network)
            sides.append((device, network, calls, rng))
        assert sides[0][0].addressing == "privacy"
        for drop in steps:
            for index, (device, network, calls, rng) in enumerate(sides):
                if drop:
                    network.remove_host(device.address)
                if index == 0:
                    device.rotate_iid(network, rng)
                else:
                    device.rehome(network, device.prefix64, rng)
            (rotated, net, calls, rng), (ref, ref_net, ref_calls,
                                         ref_rng) = sides
            assert (rotated.address, rotated.prefix64) == \
                (ref.address, ref.prefix64)
            assert rotated.address >> 64 == prefix_bits
            assert _host_map(net) == _host_map(ref_net)
            assert calls == ref_calls
            assert rng.getstate() == ref_rng.getstate()
