"""Unit tests for the OUI vendor registry."""

import pytest

from repro.ipv6 import eui64
from repro.ipv6.oui import (
    LOCAL_OUI,
    UNLISTED_OUI,
    OuiRegistry,
    Vendor,
    default_registry,
)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestDefaultRegistry:
    def test_known_vendor_resolves(self, registry):
        vendor = registry.lookup(0xB827EB)
        assert vendor is not None
        assert vendor.name == "Raspberry Pi Foundation"

    def test_unlisted_oui_is_absent(self, registry):
        assert registry.lookup(UNLISTED_OUI) is None
        assert UNLISTED_OUI not in registry._by_oui

    def test_local_oui_is_absent(self, registry):
        assert registry.lookup(LOCAL_OUI) is None

    def test_local_oui_has_local_bit(self):
        assert (LOCAL_OUI >> 16) & 0x02

    def test_lookup_mac_uses_oui(self, registry):
        assert registry.lookup_mac(0xB827EB000001).name == \
            "Raspberry Pi Foundation"

    def test_vendor_named(self, registry):
        vendor = registry.vendor_named("Sonos, Inc.")
        assert 0x000E58 in vendor.ouis

    def test_vendor_named_missing_raises(self, registry):
        with pytest.raises(KeyError):
            registry.vendor_named("ACME Corp")

    def test_paper_vendors_present(self, registry):
        for name in [
            "AVM Audiovisuelles Marketing und Computersysteme GmbH",
            "AVM GmbH",
            "Amazon Technologies Inc.",
            "Samsung Electronics Co.,Ltd",
            "Sonos, Inc.",
            "vivo Mobile Communication Co., Ltd.",
        ]:
            registry.vendor_named(name)

    def test_no_multicast_ouis(self, registry):
        """Registry OUIs must be unicast and universally administered."""
        for vendor in registry._vendors:
            for oui in vendor.ouis:
                top_byte = oui >> 16
                assert not top_byte & eui64.IG_BIT
                assert not top_byte & eui64.UL_BIT

    def test_len_counts_ouis(self, registry):
        assert len(registry) == sum(len(v.ouis) for v in registry._vendors)


class TestConstruction:
    def test_duplicate_oui_rejected(self):
        with pytest.raises(ValueError):
            OuiRegistry([
                Vendor("A", (0x111111,)),
                Vendor("B", (0x111111,)),
            ])
