"""Unit tests for integer-backed IPv6 address primitives."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ipv6 import address as addr

ADDRESSES = st.integers(min_value=0, max_value=addr.ADDRESS_SPACE - 1)
LENGTHS = st.integers(min_value=0, max_value=128)

#: Addresses whose hextets are mostly zero: every zero-run shape the
#: RFC 5952 ``::`` rule has to choose between.
SPARSE_ADDRESSES = st.lists(
    st.one_of(st.just(0), st.integers(min_value=1, max_value=0xFFFF)),
    min_size=8, max_size=8,
).map(lambda hextets: sum(h << (16 * i) for i, h in enumerate(hextets)))

#: Address-like text: mostly the characters an address is made of.
ADDRESS_TEXT = st.text(alphabet="0123456789abcdefABCDEF:.%", max_size=46)


def reference_format(value):
    """The codec's reference: the standard library's rendering."""
    return str(ipaddress.IPv6Address(value))


def reference_parse(text):
    """``("ok", int)`` or ``("error", ValueError subclass)``."""
    try:
        return "ok", int(ipaddress.IPv6Address(text))
    except ValueError as exc:
        return "error", type(exc)


def codec_parse(text):
    try:
        return "ok", addr.parse(text)
    except ValueError as exc:
        return "error", type(exc)


def from_network_key(key, length):
    """Inverse of :func:`~repro.ipv6.address.network_key`: the first
    address of the network."""
    return key << (addr.ADDRESS_BITS - length) if length else 0


def format_network(value, length):
    """Render ``value``'s ``/length`` network in CIDR notation."""
    return f"{addr.format_address(addr.prefix(value, length))}/{length}"


def contains(base, length, value):
    """Whether ``value`` falls inside the network ``base/length``."""
    return addr.prefix(base, length) == addr.prefix(value, length)


def iter_subnets(base, length, sub_length):
    """Yield the base addresses of every ``/sub_length`` inside
    ``base/length``."""
    if sub_length < length:
        raise ValueError("sub_length must be >= length")
    step = 1 << (addr.ADDRESS_BITS - sub_length)
    start = addr.prefix(base, length)
    for index in range(1 << (sub_length - length)):
        yield start + index * step


class TestParseFormat:
    def test_parse_known_address(self):
        assert addr.parse("::1") == 1

    def test_parse_full_form(self):
        value = addr.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert value == addr.parse("2001:db8::1")

    def test_format_compresses(self):
        assert addr.format_address(addr.parse("2001:db8:0:0:0:0:0:1")) == \
            "2001:db8::1"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            addr.parse("not-an-address")

    def test_parse_rejects_ipv4(self):
        with pytest.raises(ValueError):
            addr.parse("192.0.2.1")

    @given(ADDRESSES)
    def test_roundtrip(self, value):
        assert addr.parse(addr.format_address(value)) == value


class TestCodecMatchesIpaddress:
    """``parse``/``format_address`` run on ``inet_pton``/``inet_ntop``
    and must agree with :mod:`ipaddress` everywhere."""

    @given(ADDRESSES)
    def test_format_full_range(self, value):
        assert addr.format_address(value) == reference_format(value)

    @given(SPARSE_ADDRESSES)
    def test_format_sparse(self, value):
        assert addr.format_address(value) == reference_format(value)

    @given(st.one_of(ADDRESSES, SPARSE_ADDRESSES))
    def test_parse_compressed_and_exploded(self, value):
        for text in (reference_format(value),
                     ipaddress.IPv6Address(value).exploded,
                     reference_format(value).upper()):
            assert addr.parse(text) == value

    def test_every_zero_run_pattern(self):
        """All 256 choices of which hextets are zero, with small, large
        and leading-zero-prone non-zero hextets."""
        for mask in range(256):
            for fill in (1, 0xABCD, 0x0F00):
                hextets = [fill if mask >> i & 1 else 0 for i in range(8)]
                value = sum(h << (16 * (7 - i))
                            for i, h in enumerate(hextets))
                text = reference_format(value)
                assert addr.format_address(value) == text, hex(value)
                assert addr.parse(text) == value

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_ipv4_compatible_and_mapped_ranges(self, low):
        """``inet_ntop`` prints these two /96s as dotted IPv4."""
        for high in (0, 0xFFFF, 1, 0xFFFE, 0x10000):
            value = high << 32 | low
            assert addr.format_address(value) == reference_format(value)

    def test_ipv4_range_edges(self):
        edges = [0, 1, 0xFFFF_FFFF, 1 << 32, (0xFFFF << 32) - 1,
                 0xFFFF << 32, (0xFFFF << 32) | 0x01020304,
                 (0x10000 << 32) - 1, 0x10000 << 32]
        for value in edges:
            assert addr.format_address(value) == reference_format(value)
        for text in ("::ffff:1.2.3.4", "::1.2.3.4", "1::1.2.3.4",
                     "::ffff:0:0", "::0.0.0.0"):
            assert codec_parse(text) == reference_parse(text)

    def test_scope_ids_parse_like_ipaddress(self):
        for text in ("fe80::1%eth0", "fe80::1%1", "ff02::1%lo",
                     "2001:db8::1%0"):
            assert addr.parse(text) == int(ipaddress.IPv6Address(text))

    def test_non_string_arguments_parse_like_ipaddress(self):
        packed = bytes(range(16))
        assert addr.parse(42) == 42
        assert addr.parse(packed) == int(ipaddress.IPv6Address(packed))

    def test_invalid_text_raises_value_error(self):
        for text in ("", ":", ":::", "1:2:3:4:5:6:7:8:9", "12345::",
                     "1::2::3", "g::", " ::1", "::1 ", "::1\x00",
                     "\ud800", "::1.2.3.04", "::1.2.3", "1.2.3.4",
                     "1.2.3.4::", "::1%", "1:2:3:4:5:6:7::8:9",
                     "1::2:3:4:5:6:7:8", "::１"):
            kind, error = codec_parse(text)
            assert kind == "error", text
            assert issubclass(error, ipaddress.AddressValueError), text
            assert reference_parse(text) == (kind, error), text

    @given(ADDRESS_TEXT)
    def test_arbitrary_text_parses_like_ipaddress(self, text):
        assert codec_parse(text) == reference_parse(text)

    @given(ADDRESSES, st.data())
    def test_edited_text_parses_like_ipaddress(self, value, data):
        """Valid text with a character inserted, replaced or deleted:
        the near misses most likely to split the two parsers."""
        text = data.draw(st.sampled_from(
            [reference_format(value),
             ipaddress.IPv6Address(value).exploded]))
        at = data.draw(st.integers(min_value=0, max_value=len(text)))
        char = data.draw(st.sampled_from("0f:.%g "))
        edit = data.draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "replace":
            text = text[:at] + char + text[at + 1:]
        else:
            text = text[:at] + text[at + 1:]
        assert codec_parse(text) == reference_parse(text)

    def test_out_of_range_values_raise_like_ipaddress(self):
        for value in (-1, addr.ADDRESS_SPACE, addr.ADDRESS_SPACE + 5):
            with pytest.raises(ValueError) as raised:
                addr.format_address(value)
            with pytest.raises(ValueError) as reference:
                reference_format(value)
            assert str(raised.value) == str(reference.value)

    def test_int_subclasses_format_like_ipaddress(self):
        for value in (True, False):
            assert addr.format_address(value) == reference_format(value)


class TestPrefix:
    def test_prefix_48(self):
        value = addr.parse("2001:db8:1:2::5")
        assert addr.format_address(addr.prefix(value, 48)) == "2001:db8:1::"

    def test_prefix_zero_length(self):
        assert addr.prefix(addr.parse("ffff::"), 0) == 0

    def test_prefix_full_length_is_identity(self):
        value = addr.parse("2001:db8::42")
        assert addr.prefix(value, 128) == value

    def test_prefix_rejects_bad_length(self):
        with pytest.raises(ValueError):
            addr.prefix(0, 129)
        with pytest.raises(ValueError):
            addr.prefix(0, -1)

    @given(ADDRESSES, LENGTHS)
    def test_prefix_idempotent(self, value, length):
        once = addr.prefix(value, length)
        assert addr.prefix(once, length) == once

    @given(ADDRESSES, LENGTHS)
    def test_prefix_monotone(self, value, length):
        """A longer prefix refines, never contradicts, a shorter one."""
        longer = min(length + 8, 128)
        assert addr.prefix(addr.prefix(value, longer), length) == \
            addr.prefix(value, length)


class TestNetworkKey:
    def test_key_roundtrip(self):
        value = addr.parse("2001:db8:a:b::1")
        key = addr.network_key(value, 64)
        assert from_network_key(key, 64) == addr.prefix(value, 64)

    def test_consecutive_networks_consecutive_keys(self):
        base = addr.parse("2001:db8::")
        step = 1 << (128 - 48)
        assert addr.network_key(base + step, 48) == \
            addr.network_key(base, 48) + 1

    @given(ADDRESSES)
    def test_same_48_same_key(self, value):
        sibling = addr.prefix(value, 48) | (value ^ 0xFF) & 0xFFFF
        assert addr.network_key(value, 48) == addr.network_key(sibling, 48)


class TestIid:
    def test_iid_extracts_low_half(self):
        value = addr.parse("2001:db8::dead:beef")
        assert addr.iid(value) == 0xDEADBEEF

    def test_with_iid_combines(self):
        prefix = addr.parse("2001:db8:1:2::")
        assert addr.with_iid(prefix, 0x42) == addr.parse("2001:db8:1:2::42")

    @given(ADDRESSES, st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_with_iid_roundtrip(self, prefix_value, iid_value):
        combined = addr.with_iid(prefix_value, iid_value)
        assert addr.iid(combined) == iid_value
        assert addr.prefix(combined, 64) == addr.prefix(prefix_value, 64)


class TestBitOpRoundTrips:
    """Property round-trips tying the bit-op primitives together."""

    @given(ADDRESSES, LENGTHS)
    def test_network_key_roundtrip(self, value, length):
        key = addr.network_key(value, length)
        assert from_network_key(key, length) == addr.prefix(value, length)
        assert addr.network_key(from_network_key(key, length),
                                length) == key

    @given(ADDRESSES, LENGTHS)
    def test_key_bounded_by_level(self, value, length):
        assert 0 <= addr.network_key(value, length) < (1 << length)

    @given(ADDRESSES)
    def test_prefix_iid_reassemble(self, value):
        """prefix/iid split and with_iid reassembly are inverses."""
        assert addr.with_iid(addr.prefix(value, 64), addr.iid(value)) == value

    @given(ADDRESSES, st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_with_iid_ignores_old_iid(self, value, iid_value):
        assert addr.with_iid(value, iid_value) == \
            addr.with_iid(addr.prefix(value, 64), iid_value)

    @given(ADDRESSES, LENGTHS)
    def test_contains_own_prefix(self, value, length):
        """Every address lies inside its own /length network."""
        assert contains(addr.prefix(value, length), length, value)

    @given(ADDRESSES, LENGTHS)
    def test_contains_iff_same_key(self, value, length):
        other = value ^ 1  # flip the lowest bit
        same_net = addr.network_key(value, length) == \
            addr.network_key(other, length)
        assert contains(addr.prefix(value, length), length,
                             other) == same_net

    @given(ADDRESSES, st.integers(min_value=0, max_value=120))
    def test_iter_subnets_consistent_with_contains(self, value, length):
        """All subnets enumerated by iter_subnets lie inside the parent."""
        base = addr.prefix(value, length)
        child = min(length + 3, 128)
        subnets = list(iter_subnets(base, length, child))
        assert len(subnets) == 1 << (child - length)
        assert len(set(subnets)) == len(subnets)
        for subnet in subnets:
            assert contains(base, length, subnet)
            assert addr.prefix(subnet, child) == subnet


class TestNetworks:
    def test_format_network(self):
        value = addr.parse("2001:db8:1:2::5")
        assert format_network(value, 48) == "2001:db8:1::/48"

    def test_parse_network(self):
        base, length = addr.parse_network("2001:db8::/32")
        assert base == addr.parse("2001:db8::")
        assert length == 32

    def test_contains(self):
        base = addr.parse("2001:db8::")
        assert contains(base, 32, addr.parse("2001:db8:ffff::1"))
        assert not contains(base, 32, addr.parse("2001:db9::1"))

    def test_iter_subnets(self):
        base = addr.parse("2001:db8::")
        subnets = list(iter_subnets(base, 46, 48))
        assert len(subnets) == 4
        assert subnets[0] == base
        assert addr.format_address(subnets[1]) == "2001:db8:1::"

    def test_iter_subnets_rejects_shorter(self):
        with pytest.raises(ValueError):
            list(iter_subnets(0, 48, 32))

    def test_distinct_networks(self):
        values = [addr.parse("2001:db8::1"), addr.parse("2001:db8::2"),
                  addr.parse("2001:db9::1")]
        assert len(addr.distinct_networks(values, 48)) == 2
        assert len(addr.distinct_networks(values, 128)) == 3
