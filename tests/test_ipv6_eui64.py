"""Unit tests for EUI-64 / MAC embedding (Appendix B machinery)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ipv6 import address as addr
from repro.ipv6 import eui64

MACS = st.integers(min_value=0, max_value=(1 << 48) - 1)


def format_mac(mac):
    """Render a MAC in colon-separated lowercase hex."""
    return ":".join(f"{octet:02x}" for octet in mac.to_bytes(6, "big"))


def parse_mac(text):
    """Parse ``aa:bb:cc:dd:ee:ff`` (or ``-``-separated) MAC notation."""
    cleaned = text.replace("-", ":").split(":")
    if len(cleaned) != 6:
        raise ValueError(f"malformed MAC address: {text!r}")
    return int.from_bytes(bytes(int(part, 16) for part in cleaned), "big")


class TestMacToIid:
    def test_known_vector(self):
        # RFC 4291 App. A example: 34-56-78-9A-BC-DE -> 3656:78ff:fe9a:bcde.
        iid = eui64.mac_to_iid(0x3456789ABCDE)
        assert iid == 0x365678FFFE9ABCDE
        assert (iid >> 24) & 0xFFFF == eui64.EUI64_MARKER
        # U/L bit flipped: 0x34 -> 0x36.
        assert (iid >> 56) == 0x36

    def test_marker_present(self):
        assert eui64.looks_like_eui64(eui64.mac_to_iid(0x0024FE123456))

    def test_rejects_oversized_mac(self):
        with pytest.raises(ValueError):
            eui64.mac_to_iid(1 << 48)
        with pytest.raises(ValueError):
            eui64.mac_to_iid(-1)

    @given(MACS)
    def test_roundtrip(self, mac):
        assert eui64.iid_to_mac(eui64.mac_to_iid(mac)) == mac

    @given(MACS)
    def test_universal_bit_flips(self, mac):
        iid = eui64.mac_to_iid(mac)
        # The IID's seventh bit is the inverse of the MAC's U/L bit.
        assert ((iid >> 56) & eui64.UL_BIT) != ((mac >> 40) & eui64.UL_BIT)


class TestExtraction:
    def test_extract_from_full_address(self):
        mac = 0xB827EB0A0B0C
        value = addr.with_iid(addr.parse("2001:db8:1::"), eui64.mac_to_iid(mac))
        assert eui64.extract_mac(value) == mac

    def test_extract_none_for_privacy(self):
        assert eui64.extract_mac(addr.parse("2001:db8::8d4f:19c2:77ab:e03d")) \
            is None

    def test_iid_to_mac_rejects_non_eui64(self):
        with pytest.raises(ValueError):
            eui64.iid_to_mac(0x123456789)


class TestBits:
    def test_universal_detection(self):
        assert eui64.is_universal(0x0024FE123456)
        assert not eui64.is_universal(0x0224FE123456)

    def test_multicast_detection(self):
        assert eui64.is_multicast(0x0124FE123456)
        assert not eui64.is_multicast(0x0024FE123456)

    def test_oui_extraction(self):
        assert eui64.oui_of(0xB827EB123456) == 0xB827EB


class TestFormatting:
    def test_format(self):
        assert format_mac(0x0024FE123456) == "00:24:fe:12:34:56"

    def test_parse_colons(self):
        assert parse_mac("b8:27:eb:12:34:56") == 0xB827EB123456

    def test_parse_dashes(self):
        assert parse_mac("B8-27-EB-12-34-56") == 0xB827EB123456

    def test_parse_rejects_short(self):
        with pytest.raises(ValueError):
            parse_mac("b8:27:eb")

    @given(MACS)
    def test_format_parse_roundtrip(self, mac):
        assert parse_mac(format_mac(mac)) == mac
