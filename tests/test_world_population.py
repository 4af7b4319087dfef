"""Unit tests for the world generator."""

from collections import Counter


from repro.world.population import build_world
from tests.conftest import small_world_config


class TestDeterminism:
    def test_same_seed_same_world(self):
        first = build_world(small_world_config())
        second = build_world(small_world_config())
        assert len(first.devices) == len(second.devices)
        assert [d.address for d in first.devices] == \
            [d.address for d in second.devices]

    def test_different_seed_different_world(self):
        first = build_world(small_world_config())
        second = build_world(small_world_config(seed=99))
        assert [d.address for d in first.devices] != \
            [d.address for d in second.devices]


class TestComposition:
    def test_every_key_device_type_present(self, world):
        types = {device.type_name for device in world.devices}
        for expected in ["fritzbox", "dlink", "client", "generic_cpe",
                         "web_server", "cdn_front", "ssh_ubuntu",
                         "ssh_debian", "ssh_raspbian", "ssh_freebsd",
                         "mqtt_broker", "amqp_broker", "coap_castdevice"]:
            assert expected in types, f"missing device type {expected}"

    def test_scale_controls_size(self):
        small = build_world(small_world_config(scale=0.05))
        large = build_world(small_world_config(scale=0.2))
        assert len(large.devices) > 2 * len(small.devices)

    def test_clients_dominate_ntp_population(self, world):
        """Most NTP speakers must be unscannable end-user gear (the
        root cause of the paper's low hit rate)."""
        clients = world.ntp_clients()
        unreachable = [d for d in clients if not d.reachable]
        assert len(unreachable) > len(clients) / 2

    def test_fritz_concentration_in_germany(self, world):
        by_country = Counter(d.country for d in world.devices
                             if d.type_name == "fritzbox")
        assert by_country["DE"] == max(by_country.values())

    def test_dlink_never_ntp(self, world):
        for device in world.devices_of_type("dlink"):
            assert not device.is_ntp_client

    def test_castdevices_never_dns(self, world):
        for device in world.devices_of_type("coap_castdevice"):
            assert device.labels.get("dns") != "yes"

    def test_cdn_fronts_require_sni(self, world):
        fronts = world.devices_of_type("cdn_front")
        assert fronts
        for front in fronts:
            assert front.web.sni_required
            assert not front.is_ntp_client

    def test_raspbian_mostly_ntp(self, world):
        pis = world.devices_of_type("ssh_raspbian")
        assert pis
        assert all(pi.is_ntp_client for pi in pis)


class TestPlacement:
    def test_every_device_routed(self, world):
        for device in world.devices:
            assert world.asdb.lookup_asn(device.address) == device.asn

    def test_device_country_matches_as(self, world):
        for device in world.devices:
            assert world.asdb._systems[device.asn].country == device.country

    def test_addresses_unique(self, world):
        addresses = [device.address for device in world.devices]
        assert len(set(addresses)) == len(addresses)

    def test_all_devices_are_hosts(self, world):
        for device in world.devices:
            host = world.network.host(device.address)
            assert host is not None
            assert host.reachable == device.reachable

    def test_premises_devices_share_56(self, world):
        for site in world.premises[:50]:
            for device in site.devices:
                assert device.address >> 72 == site.prefix56 >> 72


class TestIdentityFabric:
    def test_fresh_macs_unique(self, world):
        macs = [d.mac for d in world.devices
                if d.mac is not None and d.labels.get("mirror") != "yes"]
        assert len(set(macs)) == len(macs)

    def test_fritz_mirror_shares_identity(self, world):
        mirrors = [d for d in world.devices
                   if d.labels.get("mirror") == "yes"]
        assert mirrors
        primaries = {d.mac: d for d in world.devices
                     if d.type_name == "fritzbox"
                     and d.labels.get("mirror") != "yes"}
        for mirror in mirrors:
            primary = primaries[mirror.mac]
            assert mirror.web is primary.web
            assert (mirror.address >> 72) == (primary.address >> 72)  # /56
            assert (mirror.address >> 64) != (primary.address >> 64)  # /64

    def test_ssh_key_reuse_exists(self):
        """The key pools must produce some shared host keys."""
        world = build_world(small_world_config(scale=0.3))
        keys = [d.ssh.host_key.fingerprint for d in world.devices
                if d.ssh is not None]
        assert len(set(keys)) < len(keys)

    def test_portal_certs_shared_by_title(self):
        world = build_world(small_world_config(scale=0.5))
        by_title = {}
        for device in world.devices_of_type("consumer_portal"):
            if device.web.certificate is None:
                continue
            by_title.setdefault(device.web.title, set()).add(
                device.web.certificate.fingerprint)
        shared = [fps for fps in by_title.values() if len(fps) == 1]
        multi = {title: fps for title, fps in by_title.items()}
        # Every title maps to exactly one certificate (white-label image).
        assert all(len(fps) == 1 for fps in multi.values())
        assert shared
