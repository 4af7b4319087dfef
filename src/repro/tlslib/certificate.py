"""X.509-like certificates as observable objects.

A certificate carries exactly the fields the paper's analyses read:
subject/issuer names, validity window, SAN list, the public-key
identity, and a stable fingerprint.  Certificates serialize to a compact
binary TLV form so the TLS handshake can ship them as real bytes and
the scan module can parse them back.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.tlslib.keys import KeyIdentity, derive_key

#: Issuer name used for publicly trusted (Let's-Encrypt-like) certs.
PUBLIC_CA = "R11 Sim Trust Services"


class CertificateDecodeError(ValueError):
    """Raised when bytes do not form a valid certificate blob."""


@dataclass(frozen=True)
class Certificate:
    """One leaf certificate as seen in a TLS handshake."""

    subject: str
    issuer: str
    not_before: float
    not_after: float
    key: KeyIdentity
    san: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def self_signed(self) -> bool:
        return self.subject == self.issuer

    def expired(self, now: float) -> bool:
        return now > self.not_after

    @property
    def fingerprint(self) -> bytes:
        """SHA-256 over the encoded form — the dedup identity."""
        return hashlib.sha256(self.encode()).digest()

    # -- wire form ------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize: length-prefixed UTF-8 fields + doubles + key blob.

        SAN entries are individually length-prefixed (a delimiter would
        corrupt names containing the delimiter character).
        """
        out = bytearray()
        for part in (self.subject, self.issuer, self.key.algorithm):
            raw = part.encode("utf-8")
            out += struct.pack("!H", len(raw)) + raw
        out += struct.pack("!H", len(self.san))
        for name in self.san:
            raw = name.encode("utf-8")
            out += struct.pack("!H", len(raw)) + raw
        out += struct.pack("!dd", self.not_before, self.not_after)
        out += struct.pack("!H", len(self.key.fingerprint))
        out += self.key.fingerprint
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        """Parse the TLV form produced by :meth:`encode`."""

        def read_string(offset: int) -> tuple[str, int]:
            (length,) = struct.unpack_from("!H", data, offset)
            offset += 2
            raw = data[offset:offset + length]
            if len(raw) != length:
                raise CertificateDecodeError("truncated certificate field")
            return raw.decode("utf-8"), offset + length

        try:
            offset = 0
            subject, offset = read_string(offset)
            issuer, offset = read_string(offset)
            algorithm, offset = read_string(offset)
            (san_count,) = struct.unpack_from("!H", data, offset)
            offset += 2
            san = []
            for _ in range(san_count):
                name, offset = read_string(offset)
                san.append(name)
            not_before, not_after = struct.unpack_from("!dd", data, offset)
            offset += 16
            (key_length,) = struct.unpack_from("!H", data, offset)
            offset += 2
            fingerprint = data[offset:offset + key_length]
            if len(fingerprint) != key_length:
                raise CertificateDecodeError("truncated key fingerprint")
        except (struct.error, UnicodeDecodeError) as exc:
            raise CertificateDecodeError(str(exc)) from exc
        return cls(
            subject=subject,
            issuer=issuer,
            not_before=not_before,
            not_after=not_after,
            key=KeyIdentity(fingerprint=fingerprint, algorithm=algorithm),
            san=tuple(san),
        )


#: Lifetimes, in seconds, of a publicly trusted (ACME-style) and of a
#: device-style self-signed certificate.  Every certificate is issued
#: at time 0.
PUBLIC_LIFETIME = 90 * 86_400.0
SELF_SIGNED_LIFETIME = 3650 * 86_400.0


def issue_public(subject: str,
                 key: Optional[KeyIdentity] = None) -> Certificate:
    """A publicly trusted (ACME-style) 90-day certificate."""
    return Certificate(
        subject=subject,
        issuer=PUBLIC_CA,
        not_before=0.0,
        not_after=PUBLIC_LIFETIME,
        key=key or derive_key(f"cert|{subject}|0.0", "rsa-2048"),
        san=(subject,),
    )


def issue_self_signed(subject: str,
                      key: Optional[KeyIdentity] = None) -> Certificate:
    """A device-style self-signed certificate (very long-lived)."""
    return Certificate(
        subject=subject,
        issuer=subject,
        not_before=0.0,
        not_after=SELF_SIGNED_LIFETIME,
        key=key or derive_key(f"selfsigned|{subject}|0.0", "rsa-2048"),
        san=(subject,),
    )
