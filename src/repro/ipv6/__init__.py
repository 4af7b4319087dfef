"""IPv6 address substrate: parsing, IID structure, EUI-64, packed columns."""

from repro.ipv6.address import (
    ADDRESS_BITS,
    ADDRESS_SPACE,
    format_address,
    format_network,
    network_key,
    parse,
    parse_network,
    prefix,
)
from repro.ipv6.columnar import AddressColumn
from repro.ipv6.eui64 import extract_mac, format_mac, mac_to_iid, parse_mac
from repro.ipv6.iid import CLASSES, classify_iid, profile
from repro.ipv6.oui import OuiRegistry, default_registry

__all__ = [
    "ADDRESS_BITS",
    "ADDRESS_SPACE",
    "AddressColumn",
    "CLASSES",
    "OuiRegistry",
    "classify_iid",
    "default_registry",
    "extract_mac",
    "format_address",
    "format_mac",
    "format_network",
    "mac_to_iid",
    "network_key",
    "parse",
    "parse_mac",
    "parse_network",
    "prefix",
    "profile",
]
