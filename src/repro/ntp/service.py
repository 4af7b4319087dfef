"""NTP control-plane responder for scan-facing worlds.

The amplification study scans a dedicated lean world of NTP servers.
The live :class:`~repro.ntp.server.NtpServer` answers only the mode-3
time exchange; this module holds the one mode-6/7 responder — a frozen
handler object whose responses are a pure function of its constructor
state.

Monitor tables are *pre-seeded* rather than accumulated: a server's
recent-client table is derived deterministically from ``(seed,
address)`` on the same private RNG stream discipline
:func:`repro.world.ntpprofiles.profile_for` uses, which keeps the
monlist response train — and therefore the amplification-factor
distribution — independent of scan order.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.net.packet import Datagram
from repro.ntp.control import (
    MAX_CONTROL_DATA,
    MODE_CONTROL,
    MODE_PRIVATE,
    OP_READSTAT,
    OP_READVAR,
    ControlPacket,
    MonlistEntry,
    NtpDecodeError,
    PrivatePacket,
    fragment_response,
    is_monlist_request,
    monlist_deny,
    monlist_response,
    peek_mode,
)
from repro.world.ntpprofiles import NtpServerProfile, profile_for

#: Stream label for monitor-table derivation (disjoint from the
#: profile stream's salt so the two never share a draw).
_TABLE_SALT = 0x4D4F_4E4C  # "MONL"

_MIX = 0x9E3779B97F4A7C15

#: Largest pre-seeded recent-client table (ntpd's default MRU depth
#: is far larger; 48 keeps response trains to a handful of packets).
DEFAULT_MAX_ENTRIES = 48


def seeded_entries(seed: int, address: int, *,
                   max_entries: int = DEFAULT_MAX_ENTRIES
                   ) -> List[MonlistEntry]:
    """The deterministic recent-client table of the server at ``address``.

    A pure function of ``(seed, address)``: entry count, client
    addresses, ports and ages all come from a private per-address RNG
    stream, so two runs always serve the same monlist train.
    """
    if max_entries < 0:
        raise ValueError(f"max_entries={max_entries}: must be >= 0")
    mixed = (address ^ (address >> 64)) & (1 << 64) - 1
    rng = random.Random(((seed ^ _TABLE_SALT) * _MIX + mixed * _MIX)
                        & (1 << 64) - 1)
    count = rng.randint(0, max_entries)
    return [
        MonlistEntry(
            address=rng.getrandbits(128),
            port=rng.randint(1024, 65535),
            count=rng.randint(1, 4096),
            mode=3,
            version=rng.choice((3, 4)),
            last_seen=rng.randint(0, 3600),
            first_seen=rng.randint(3600, 86_400),
        )
        for _ in range(count)
    ]


class NtpControlService:
    """A mode-6/7-only UDP handler bound to one scan-world address.

    Answers ``readvar``/``readstat`` with the profile's version string
    and monlist from the pre-seeded table (when the profile exposes
    it).  Mode-3 time requests are out of scope — the amplification
    study probes the control plane only.
    """

    #: The stratum ``readvar`` reports, and the largest data window of
    #: one response fragment.
    stratum = 2
    control_mtu = MAX_CONTROL_DATA

    def __init__(self, profile: NtpServerProfile,
                 entries: List[MonlistEntry]) -> None:
        self.profile = profile
        self.entries = list(entries)

    def system_variables(self) -> str:
        """The readvar payload: the daemon's advertised variables."""
        return (f'version="{self.profile.software_version}", '
                f'processor="simnet", system="repro/6", '
                f'stratum={self.stratum}, refid=POOL, leap=00')

    def __call__(self, datagram: Datagram) -> Optional[List[bytes]]:
        mode = peek_mode(datagram.payload)
        if mode == MODE_CONTROL:
            return self._handle_control(datagram.payload)
        if mode == MODE_PRIVATE:
            return self._handle_private(datagram.payload)
        return None

    def _handle_control(self, payload: bytes) -> Optional[List[bytes]]:
        try:
            request = ControlPacket.decode(payload)
        except NtpDecodeError:
            return None
        if request.response:
            return None
        if request.opcode == OP_READVAR:
            data = self.system_variables().encode("ascii")
            fragments = fragment_response(request, data,
                                          mtu=self.control_mtu)
        elif request.opcode == OP_READSTAT:
            fragments = fragment_response(request, b"")
        else:
            fragments = [ControlPacket(
                opcode=request.opcode, sequence=request.sequence,
                response=True, error=True, version=request.version)]
        return [fragment.encode() for fragment in fragments]

    def _handle_private(self, payload: bytes) -> Optional[List[bytes]]:
        try:
            request = PrivatePacket.decode(payload)
        except NtpDecodeError:
            return None
        if request.response:
            return None
        if not is_monlist_request(request):
            return [monlist_deny(request.sequence).encode()]
        if not self.profile.monlist_enabled:
            return None
        packets = monlist_response(self.entries,
                                   sequence=request.sequence)
        return [packet.encode() for packet in packets]


def control_service_for(seed: int, address: int, *,
                        max_entries: int = DEFAULT_MAX_ENTRIES
                        ) -> NtpControlService:
    """Build the deterministic service of the server at ``address``."""
    return NtpControlService(
        profile_for(seed, address),
        seeded_entries(seed, address, max_entries=max_entries))
