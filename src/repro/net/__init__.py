"""Simulated-internet substrate: virtual time, datagrams, streams, taps."""

from repro.net.clock import DAY, HOUR, MINUTE, SECOND, WEEK, EventScheduler, VirtualClock
from repro.net.dns import DnsRecord, DnsZone
from repro.net.packet import Datagram, PacketRecord, Transport
from repro.net.rdns import ReverseDns
from repro.net.simnet import Host, Network, Stream

__all__ = [
    "DAY",
    "Datagram",
    "DnsRecord",
    "DnsZone",
    "EventScheduler",
    "HOUR",
    "Host",
    "MINUTE",
    "Network",
    "PacketRecord",
    "ReverseDns",
    "SECOND",
    "Stream",
    "Transport",
    "VirtualClock",
    "WEEK",
]
