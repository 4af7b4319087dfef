"""Unit tests for dynamic addressing churn."""

import random

import pytest

from repro.ipv6 import parse, prefix
from repro.net.simnet import Network
from repro.world.churn import ChurnModel, Premises
from repro.world.devices import make_client_device, make_fritzbox


@pytest.fixture()
def setup():
    network = Network()
    rng = random.Random(5)
    allocations = iter(range(1, 100))

    def fresh(site):
        return parse("2001:db8::") + (next(allocations) << 72)

    churn = ChurnModel(network, rng, fresh)
    site = Premises(site_id=0, asn=64500, country="DE",
                    prefix56=parse("2001:db8::"), rotation_rate=1.0)
    router = make_fritzbox(rng, 0, 0x3C3786000001)
    phone = make_client_device(rng, 0, None, "Samsung", addressing="privacy")
    for slot, device in enumerate([router, phone]):
        device.assign_address(site.device_prefix64(slot), rng)
        device.materialize(network)
        site.devices.append(device)
    churn.register(site)
    return network, churn, site, router, phone


class TestPrefixRotation:
    def test_rotation_moves_all_devices(self, setup):
        network, churn, site, router, phone = setup
        old_router, old_phone = router.address, phone.address
        churn.step_day()
        assert router.address != old_router
        assert phone.address != old_phone
        assert churn.rotations == 1

    def test_devices_stay_inside_new_56(self, setup):
        network, churn, site, router, phone = setup
        churn.step_day()
        assert prefix(router.address, 56) == site.prefix56
        assert prefix(phone.address, 56) == site.prefix56

    def test_old_addresses_dead(self, setup):
        network, churn, site, router, phone = setup
        old = router.address
        churn.step_day()
        assert network.host(old) is None
        assert network.host(router.address) is not None

    def test_static_site_never_rotates(self, setup):
        network, churn, site, router, phone = setup
        site.rotation_rate = 0.0
        old = router.address
        for _ in range(5):
            churn.step_day()
        assert router.address == old
        assert churn.rotations == 0
        assert site.rotation_rate == 0.0  # a stable premises


class TestPrivacyRotation:
    def test_privacy_iid_rotates_daily_without_prefix_change(self, setup):
        network, churn, site, router, phone = setup
        site.rotation_rate = 0.0
        old_phone = phone.address
        old_router = router.address
        churn.step_day()
        assert phone.address != old_phone
        assert router.address == old_router  # EUI-64 IIDs are stable
        assert prefix(phone.address, 64) == prefix(old_phone, 64)
        assert churn.iid_rotations == 1

    def test_address_accumulation(self, setup):
        """A privacy device visits a new address every day — the effect
        that inflates NTP-collected address counts."""
        network, churn, site, router, phone = setup
        site.rotation_rate = 0.0
        seen = {phone.address}
        for _ in range(10):
            churn.step_day()
            seen.add(phone.address)
        assert len(seen) == 11


class TestSlots:
    def test_slot_out_of_range(self):
        site = Premises(site_id=0, asn=1, country="DE", prefix56=0)
        with pytest.raises(ValueError):
            site.device_prefix64(256)

    def test_slots_distinct_64s(self):
        site = Premises(site_id=0, asn=1, country="DE",
                        prefix56=parse("2001:db8::"))
        assert site.device_prefix64(0) != site.device_prefix64(1)
        assert prefix(site.device_prefix64(5), 56) == site.prefix56
