"""SSH transport-layer surface: identification strings and host keys.

A real SSH handshake starts with both sides exchanging identification
strings (RFC 4253 §4.2) — ``SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3`` —
after which the server's KEXINIT/KEXDH reply reveals its host key.
The paper's analyses use precisely these two artefacts:

* the *software/comment* portion of the ID string names the OS
  distribution and, for Debian-derived systems, the patch level
  (Section 4.4.1's outdatedness analysis);
* the *host key* is the dedup identity (Table 2, Section 6).

We implement the ID-string exchange verbatim and compress the key
exchange into a single binary ``KEYREPLY`` packet carrying algorithm
and fingerprint — the exact observables, minus the Diffie-Hellman.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.tlslib.keys import KeyIdentity

#: Magic marking our condensed key-exchange reply packet.
KEYREPLY_MAGIC = b"SSHK"

#: RFC 4253 identification-string pattern.
_ID_STRING = re.compile(
    r"^SSH-(?P<proto>\d\.\d)-(?P<software>\S+)(?: (?P<comment>.*))?$"
)


class SshDecodeError(ValueError):
    """Raised on malformed SSH artefacts."""


@dataclass(frozen=True)
class SshIdentification:
    """A parsed SSH identification string."""

    protocol: str
    software: str
    comment: Optional[str] = None

    def encode(self) -> bytes:
        line = f"SSH-{self.protocol}-{self.software}"
        if self.comment:
            line += f" {self.comment}"
        return line.encode("ascii") + b"\r\n"

    @classmethod
    def decode(cls, data: bytes) -> "SshIdentification":
        line = data.split(b"\r\n", 1)[0].split(b"\n", 1)[0]
        match = _ID_STRING.match(line.decode("ascii", "replace"))
        if not match:
            raise SshDecodeError(f"bad identification string: {line!r}")
        return cls(
            protocol=match.group("proto"),
            software=match.group("software"),
            comment=match.group("comment"),
        )

    @property
    def banner(self) -> str:
        """The full human-readable form without the CRLF."""
        text = f"SSH-{self.protocol}-{self.software}"
        return f"{text} {self.comment}" if self.comment else text


def banner_for(software: str, comment: Optional[str] = None) -> SshIdentification:
    """Convenience constructor for an SSH-2.0 server identification."""
    return SshIdentification(protocol="2.0", software=software, comment=comment)


def encode_keyreply(key: KeyIdentity) -> bytes:
    """Encode the condensed host-key packet."""
    algo = key.algorithm.encode("ascii")
    return (
        KEYREPLY_MAGIC
        + struct.pack("!H", len(algo)) + algo
        + struct.pack("!H", len(key.fingerprint)) + key.fingerprint
    )


def decode_keyreply(data: bytes) -> KeyIdentity:
    """Parse the condensed host-key packet."""
    if not data.startswith(KEYREPLY_MAGIC):
        raise SshDecodeError("missing KEYREPLY magic")
    try:
        offset = len(KEYREPLY_MAGIC)
        (algo_length,) = struct.unpack_from("!H", data, offset)
        offset += 2
        algorithm = data[offset:offset + algo_length].decode("ascii")
        offset += algo_length
        (fp_length,) = struct.unpack_from("!H", data, offset)
        offset += 2
        fingerprint = data[offset:offset + fp_length]
        if len(fingerprint) != fp_length:
            raise SshDecodeError("truncated fingerprint")
    except (struct.error, UnicodeDecodeError) as exc:
        raise SshDecodeError(str(exc)) from exc
    return KeyIdentity(fingerprint=fingerprint, algorithm=algorithm)


class SshServerSession:
    """Server side: emits the banner, answers the client hello with keys."""

    def __init__(self, identification: SshIdentification,
                 host_key: KeyIdentity) -> None:
        self.identification = identification
        self.host_key = host_key
        self.closed = False

    def greeting(self) -> bytes:
        return self.identification.encode()

    def on_data(self, data: bytes) -> Optional[bytes]:
        try:
            SshIdentification.decode(data)
        except SshDecodeError:
            self.closed = True
            return None
        return encode_keyreply(self.host_key)


# -- OS extraction (Section 4.3.2 / Table 9) ---------------------------

#: software-version → distribution patterns; comment strings also carry
#: distro info for packaged OpenSSH (e.g. "OpenSSH_9.2p1 Debian-2").
_OS_PATTERNS: Tuple[Tuple[re.Pattern, str], ...] = (
    (re.compile(r"Ubuntu", re.IGNORECASE), "Ubuntu"),
    (re.compile(r"Raspbian", re.IGNORECASE), "Raspbian"),
    (re.compile(r"Debian", re.IGNORECASE), "Debian"),
    (re.compile(r"FreeBSD", re.IGNORECASE), "FreeBSD"),
    (re.compile(r"NetBSD", re.IGNORECASE), "NetBSD"),
)


def extract_os(identification: SshIdentification) -> str:
    """Best-effort OS name from an SSH server identification.

    Returns the distribution name or ``"other/unknown"`` — the exact
    buckets of Table 3 (SSH column).
    """
    haystack = identification.banner
    for pattern, name in _OS_PATTERNS:
        if pattern.search(haystack):
            return name
    return "other/unknown"


#: e.g. "OpenSSH_9.2p1 Debian-2+deb12u3" → ("9.2p1", "2+deb12u3")
_DEBIAN_VERSION = re.compile(
    r"OpenSSH_(?P<upstream>[\w.]+)\s+"
    r"(?:Debian|Ubuntu|Raspbian)-(?P<patch>[\w.+~]+)"
)


def debian_patch_level(identification: SshIdentification) -> Optional[Tuple[str, str]]:
    """Extract (upstream_version, distro_patch) from Debian-derived banners.

    Only Debian-derived builds expose their patch level in the banner,
    which is why the paper restricts the outdatedness analysis to them.
    Returns ``None`` for everything else.
    """
    match = _DEBIAN_VERSION.search(identification.banner)
    if not match:
        return None
    return match.group("upstream"), match.group("patch")


@dataclass(frozen=True)
class SshSessionFactory:
    """Picklable factory producing :class:`SshServerSession` instances
    (see :class:`repro.proto.http.HttpSessionFactory` for why services
    are bound as factory objects, not closures)."""

    identification: SshIdentification
    host_key: KeyIdentity

    def __call__(self) -> SshServerSession:
        return SshServerSession(self.identification, self.host_key)
