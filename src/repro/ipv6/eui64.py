"""EUI-64 interface identifiers and embedded MAC addresses.

SLAAC hosts that do not use privacy extensions derive their IID from the
interface's 48-bit MAC address using the modified EUI-64 scheme
(RFC 4291 App. A): the MAC is split in half, ``ff:fe`` is inserted in
the middle, and the universal/local ("U/L") bit — bit 1 of the first
octet — is *flipped* (so a globally unique MAC yields an IID whose
seventh bit is **set**).

The paper's Appendix B extracts these MACs from collected addresses,
filters for the "unique" (universally administered) bit, and maps the
OUI (top 24 bits of the MAC) to the device vendor via the IEEE registry.
"""

from __future__ import annotations

from repro.ipv6 import address as addr

#: The two marker bytes inserted into the middle of an EUI-64 IID.
EUI64_MARKER = 0xFFFE

#: U/L bit position within the IID's most significant byte.
UL_BIT = 0x02

#: I/G (multicast) bit within a MAC's most significant byte.
IG_BIT = 0x01


def looks_like_eui64(iid_value: int) -> bool:
    """Return whether a 64-bit IID carries the ``ff:fe`` EUI-64 marker."""
    return (iid_value >> 24) & 0xFFFF == EUI64_MARKER


def mac_to_iid(mac: int) -> int:
    """Convert a 48-bit MAC address into a modified EUI-64 IID.

    >>> hex(mac_to_iid(0x0024FE123456))
    '0x224fefffe123456'
    """
    if not 0 <= mac < (1 << 48):
        raise ValueError(f"MAC must be a 48-bit integer, got {mac:#x}")
    high = (mac >> 24) & 0xFFFFFF
    low = mac & 0xFFFFFF
    iid_value = (high << 40) | (EUI64_MARKER << 24) | low
    # Flip the universal/local bit of the first octet.
    return iid_value ^ (UL_BIT << 56)


def iid_to_mac(iid_value: int) -> int:
    """Recover the embedded MAC from a modified EUI-64 IID.

    Raises :class:`ValueError` when the IID does not carry the marker;
    callers should first gate on :func:`looks_like_eui64`.
    """
    if not looks_like_eui64(iid_value):
        raise ValueError(f"IID {iid_value:#x} is not EUI-64 formed")
    unflipped = iid_value ^ (UL_BIT << 56)
    high = (unflipped >> 40) & 0xFFFFFF
    low = unflipped & 0xFFFFFF
    return (high << 24) | low


def extract_mac(address_value: int) -> int | None:
    """Extract the embedded MAC from a full address, or ``None``."""
    identifier = address_value & addr.IID_MASK
    if not looks_like_eui64(identifier):
        return None
    return iid_to_mac(identifier)


def is_universal(mac: int) -> bool:
    """Whether the MAC claims to be globally unique (U/L bit clear)."""
    return not (mac >> 40) & UL_BIT


def is_multicast(mac: int) -> bool:
    """Whether the MAC is a group (multicast) address (I/G bit set)."""
    return bool((mac >> 40) & IG_BIT)


def oui_of(mac: int) -> int:
    """Return the 24-bit Organizationally Unique Identifier of a MAC."""
    return (mac >> 24) & 0xFFFFFF


def format_mac(mac: int) -> str:
    """Render a MAC in colon-separated lowercase hex.

    >>> format_mac(0x0024FE123456)
    '00:24:fe:12:34:56'
    """
    raw = mac.to_bytes(6, "big")
    return ":".join(f"{octet:02x}" for octet in raw)


def parse_mac(text: str) -> int:
    """Parse ``aa:bb:cc:dd:ee:ff`` (or ``-``-separated) MAC notation."""
    cleaned = text.replace("-", ":").split(":")
    if len(cleaned) != 6:
        raise ValueError(f"malformed MAC address: {text!r}")
    return int.from_bytes(bytes(int(part, 16) for part in cleaned), "big")
