"""NTP scan module: mode-6 readvar recon plus mode-7 monlist probe.

The control-plane analogue of the paper's service scans: one mode-6
``readvar`` query reads the daemon's advertised version string (the
``ntpq -c rv`` reconnaissance step), then one 72-byte mode-7 monlist
request measures whether the server exposes its recent-client table —
and, when it does, how many bytes the multi-packet response train
returns per request byte (the amplification factor of Figs 2/3).

Unlike the single-response paper probes, both queries can legitimately
come back as several packets, so the module rides
:meth:`repro.net.simnet.Network.udp_request_multi` and reassembles
mode-6 fragments / decodes the whole monlist train.
"""

from __future__ import annotations

import itertools
import re
from typing import List, Optional

from repro.net.simnet import Network
from repro.ntp.control import (
    ControlPacket,
    NtpDecodeError,
    monlist_request,
    decode_monlist,
    readvar_request,
    reassemble,
)
from repro.ntp.server import NTP_PORT
from repro.scan.result import NtpGrab

_sequences = itertools.count(0x10)

#: Pulls ``version="ntpd 4.2.8p17"`` out of a readvar payload.
_VERSION = re.compile(r'version="([^"]*)"')


def _query_version(network: Network, source: int, target: int,
                   port: int, sequence: int) -> Optional[str]:
    """Run the readvar exchange; None when the target stays silent."""
    request = readvar_request(sequence=sequence & 0xFFFF)
    payloads = network.udp_request_multi(source, target, port,
                                         request.encode())
    if not payloads:
        return None
    try:
        fragments = [ControlPacket.decode(payload) for payload in payloads]
        data = reassemble(fragments)
    except NtpDecodeError:
        return None
    match = _VERSION.search(data.decode("ascii", "replace"))
    return match.group(1) if match else ""


def refused_ntp(address: int, time: float, port: int) -> NtpGrab:
    """The grab of an NTP probe whose readvar query went unanswered."""
    return NtpGrab(address=address, time=time, ok=False)


def scan_ntp(network: Network, source: int, target: int) -> NtpGrab:
    """Probe one address: readvar for the version, monlist for exposure."""
    port = NTP_PORT
    now = network.clock.now()
    sequence = next(_sequences)
    version = _query_version(network, source, target, port, sequence)
    if version is None:
        return refused_ntp(target, now, port)
    request = monlist_request(sequence=sequence & 0x7F)
    wire = request.encode()
    payloads: List[bytes] = network.udp_request_multi(
        source, target, port, wire)
    if not payloads:
        # Readvar answered but monlist was dropped: the patched-daemon
        # silence the paper's exposure share counts as "not vulnerable".
        return NtpGrab(address=target, time=now, ok=True, version=version,
                       monlist=False, request_bytes=len(wire))
    try:
        entries, err = decode_monlist(payloads)
    except NtpDecodeError:
        return NtpGrab(address=target, time=now, ok=True, version=version,
                       monlist=False, request_bytes=len(wire))
    response_bytes = sum(len(payload) for payload in payloads)
    return NtpGrab(
        address=target, time=now, ok=True, version=version,
        monlist=err == 0, entries=len(entries),
        response_packets=len(payloads), request_bytes=len(wire),
        response_bytes=response_bytes,
    )
