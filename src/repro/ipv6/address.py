"""Integer-backed IPv6 address primitives.

Every address in this library is a plain Python ``int`` in ``[0, 2**128)``.
Integers keep set/dict operations cheap at the scale of millions of
addresses, which is what the collection pipeline has to handle.  This
module provides the conversions and prefix arithmetic layered on top.

The textual conversions go through the C library's ``inet_pton`` and
``inet_ntop`` and agree with :mod:`ipaddress` on every input: where
the two would differ, they hand the value to :mod:`ipaddress`.
Formatting is RFC 5952 compressed form.  The hot paths — prefix
extraction, IID splitting, subnet keys — are raw integer arithmetic.
"""

from __future__ import annotations

import ipaddress
from socket import AF_INET6, inet_ntop, inet_pton
from typing import Iterable, Iterator

#: Number of bits in an IPv6 address.
ADDRESS_BITS = 128

#: Exclusive upper bound of the address space.
ADDRESS_SPACE = 1 << ADDRESS_BITS

#: Mask selecting the interface identifier (low 64 bits).
IID_MASK = (1 << 64) - 1

#: Mask selecting the network prefix (high 64 bits).
PREFIX_MASK = IID_MASK << 64


def parse(text: str) -> int:
    """Parse an IPv6 address string into its integer form.

    Text ``inet_pton`` refuses (scope IDs such as ``fe80::1%eth0``,
    bad text) and non-string arguments go to :mod:`ipaddress`, so they
    behave exactly as an ``ipaddress.IPv6Address``: bad text raises
    :class:`ipaddress.AddressValueError`, a :class:`ValueError`.

    >>> parse("2001:db8::1")
    42540766411282592856903984951653826561
    """
    try:
        return int.from_bytes(inet_pton(AF_INET6, text), "big")
    except (OSError, TypeError, ValueError):
        return int(ipaddress.IPv6Address(text))


def format_address(value: int) -> str:
    """Render an integer address in RFC 5952 compressed form.

    ``inet_ntop`` prints parts of ``::/96`` and ``::ffff:0:0/96`` as
    dotted IPv4, so those ranges, values outside the address space
    (which raise :class:`ValueError`) and anything but a plain ``int``
    go to :mod:`ipaddress`.

    >>> format_address(parse("2001:0db8::0001"))
    '2001:db8::1'
    """
    if type(value) is int and 0 <= value < ADDRESS_SPACE:
        high = value >> 32
        if high != 0 and high != 0xFFFF:
            return inet_ntop(AF_INET6, value.to_bytes(16, "big"))
    return str(ipaddress.IPv6Address(value))


def is_valid(value: int) -> bool:
    """Return whether ``value`` lies inside the IPv6 address space."""
    return 0 <= value < ADDRESS_SPACE


def prefix(value: int, length: int) -> int:
    """Return the address truncated to its first ``length`` bits.

    The result keeps the address's bit position (it is *not* shifted
    down), so ``prefix(a, 48)`` of two addresses compare equal exactly
    when the addresses share a /48.
    """
    if not 0 <= length <= ADDRESS_BITS:
        raise ValueError(f"prefix length must be in [0, 128], got {length}")
    if length == 0:
        return 0
    mask = ((1 << length) - 1) << (ADDRESS_BITS - length)
    return value & mask


def network_key(value: int, length: int) -> int:
    """Return a compact key identifying the ``/length`` network of ``value``.

    Unlike :func:`prefix` the result is shifted down so that consecutive
    networks map to consecutive integers; useful as a dict key.
    """
    if not 0 <= length <= ADDRESS_BITS:
        raise ValueError(f"prefix length must be in [0, 128], got {length}")
    return value >> (ADDRESS_BITS - length) if length else 0


def from_network_key(key: int, length: int) -> int:
    """Inverse of :func:`network_key`: the first address of the network."""
    return key << (ADDRESS_BITS - length) if length else 0


def iid(value: int) -> int:
    """Return the 64-bit interface identifier (low half) of an address."""
    return value & IID_MASK


def with_iid(prefix_value: int, iid_value: int) -> int:
    """Combine a /64 prefix and a 64-bit IID into a full address."""
    return (prefix_value & PREFIX_MASK) | (iid_value & IID_MASK)


def format_network(value: int, length: int) -> str:
    """Render ``value``'s ``/length`` network in CIDR notation.

    >>> format_network(parse("2001:db8:1:2::5"), 48)
    '2001:db8:1::/48'
    """
    return f"{format_address(prefix(value, length))}/{length}"


def parse_network(text: str) -> tuple[int, int]:
    """Parse CIDR notation into ``(base_address, prefix_length)``."""
    net = ipaddress.IPv6Network(text, strict=False)
    return int(net.network_address), net.prefixlen


def contains(base: int, length: int, value: int) -> bool:
    """Return whether ``value`` falls inside the network ``base/length``."""
    return prefix(base, length) == prefix(value, length)


def iter_subnets(base: int, length: int, sub_length: int) -> Iterator[int]:
    """Yield the base addresses of every ``/sub_length`` inside ``base/length``.

    Intended for small fan-outs (e.g. enumerating /48s of a /40); the
    iterator is lazy so callers can slice it.
    """
    if sub_length < length:
        raise ValueError("sub_length must be >= length")
    step = 1 << (ADDRESS_BITS - sub_length)
    start = prefix(base, length)
    count = 1 << (sub_length - length)
    for index in range(count):
        yield start + index * step


def distinct_networks(addresses: Iterable[int], length: int) -> set[int]:
    """Return the set of ``/length`` network keys covering ``addresses``."""
    shift = ADDRESS_BITS - length
    return {value >> shift for value in addresses}
