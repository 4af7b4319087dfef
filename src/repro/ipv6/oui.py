"""A vendor registry mapping OUIs to manufacturers.

The paper resolves OUIs against the IEEE MA-L registry.  Offline, we
ship a registry covering the vendors the paper reports (Table 4) plus a
tail of generic vendors; the world generator assigns MACs from exactly
these blocks so that the Appendix-B analysis exercises a realistic mix
of listed, unlisted, and locally administered MACs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.ipv6 import eui64


@dataclass(frozen=True)
class Vendor:
    """One manufacturer with the OUI blocks assigned to it."""

    name: str
    ouis: tuple[int, ...]


# OUI blocks are synthetic but stable: each vendor owns a contiguous set
# of 24-bit identifiers with the U/L and I/G bits clear in the top byte.
# (Real OUIs for these vendors exist, but exact values are irrelevant to
# every analysis, which only needs a consistent OUI -> name mapping.)
_VENDOR_TABLE: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("AVM Audiovisuelles Marketing und Computersysteme GmbH",
     (0x3C3786, 0x2C3AFD, 0x44112A, 0x5C4979)),
    ("AVM GmbH", (0xE8DF70, 0x989BCB)),
    ("Amazon Technologies Inc.", (0x0C47C9, 0x74C246, 0xF0272D)),
    ("Samsung Electronics Co.,Ltd", (0x8C7712, 0xA01081, 0xD0176A)),
    ("Sonos, Inc.", (0x000E58, 0x5CAAFD)),
    ("vivo Mobile Communication Co., Ltd.", (0x504B5B, 0xA89675)),
    ("Shenzhen Ogemray Technology Co.,Ltd", (0x90F052,)),
    ("China Dragon Technology Limited", (0xB04A39,)),
    ("GUANGDONG OPPO MOBILE TELECOMMUNICATIONS CORP.,LTD",
     (0x1C77F6, 0x94652D)),
    ("Shenzhen iComm Semiconductor CO.,LTD", (0x60FB00,)),
    ("Qingdao Haier Multimedia Limited.", (0x80DA13,)),
    ("QING DAO HAIER TELECOM CO.,LTD.", (0x28FAA0,)),
    ("Hui Zhou Gaoshengda Technology Co.,LTD", (0x88D50C,)),
    ("Fiberhome Telecommunication Technologies Co.,LTD", (0x48F97C,)),
    ("Tenda Technology Co.,Ltd.Dongguan branch", (0xC83A35,)),
    ("Beijing Xiaomi Electronics Co.,Ltd", (0x786A89,)),
    ("Earda Technologies co Ltd", (0x585FF6,)),
    ("Guangzhou Shiyuan Electronics Co., Ltd.", (0x14F5F9,)),
    ("Shenzhen Cultraview Digital Technology Co., Ltd", (0x1091D1,)),
    ("Raspberry Pi Foundation", (0xB827EB, 0xDCA632)),
    ("Cisco Systems, Inc", (0x00562B, 0x58971E)),
    ("D-Link International", (0x340804, 0xC4E90A)),
    ("Intel Corporate", (0x3C5282, 0xA0510B)),
    ("TP-LINK TECHNOLOGIES CO.,LTD.", (0x50C7BF, 0x98DAC4)),
    ("Espressif Inc.", (0x2462AB, 0x8CAAB5)),
    ("Nanoleaf", (0x00557B,)),
)


class OuiRegistry:
    """OUI -> vendor lookups over a fixed table.

    ``lookup`` returns ``None`` for unlisted OUIs, mirroring how the
    paper distinguishes "(Unlisted)" MAC blocks from registered ones.
    """

    def __init__(self, vendors: Iterable[Vendor]) -> None:
        self._vendors = tuple(vendors)
        self._by_oui: dict[int, Vendor] = {}
        for vendor in self._vendors:
            for oui in vendor.ouis:
                if oui in self._by_oui:
                    raise ValueError(
                        f"OUI {oui:#08x} assigned to both "
                        f"{self._by_oui[oui].name!r} and {vendor.name!r}"
                    )
                self._by_oui[oui] = vendor

    def lookup(self, oui: int) -> Optional[Vendor]:
        """Resolve an OUI; ``None`` if not registered."""
        return self._by_oui.get(oui)

    def lookup_mac(self, mac: int) -> Optional[Vendor]:
        """Resolve a full MAC address via its OUI."""
        return self.lookup(eui64.oui_of(mac))

    def vendor_named(self, name: str) -> Vendor:
        """Find a vendor by exact name (raises ``KeyError`` if absent)."""
        for vendor in self._vendors:
            if vendor.name == name:
                return vendor
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self._by_oui)


def default_registry() -> OuiRegistry:
    """The registry used throughout the reproduction."""
    return OuiRegistry(Vendor(name, ouis) for name, ouis in _VENDOR_TABLE)


#: An OUI deliberately absent from the registry, used by the world
#: generator for devices whose vendor the IEEE database does not list.
#: The top byte keeps the U/L and I/G bits clear: the MAC *claims*
#: global uniqueness, its vendor just is not registered.
UNLISTED_OUI = 0xE47001

#: A locally administered OUI (U/L bit set in the top byte).
LOCAL_OUI = 0x0255AA
