"""Deterministic key material for TLS certificates and SSH host keys.

Real cryptography is irrelevant to every analysis in the paper — what
matters is *identity*: the scanner deduplicates hosts by certificate and
host-key fingerprints, and Section 6 measures how widely one key is
shared across addresses and ASes.  A key here is therefore a stable
SHA-256-derived fingerprint over a seed, plus the algorithm label the
grab reports.

:class:`KeyPool` models the paper's key-reuse root cause: pre-built
system/container images that ship identical secrets, so many devices
draw the *same* key object from a small pool.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class KeyIdentity:
    """One (a)symmetric key as the scanner can observe it."""

    fingerprint: bytes
    algorithm: str = "ssh-ed25519"

    @property
    def hex(self) -> str:
        return self.fingerprint.hex()

    @property
    def short(self) -> str:
        """First 8 hex chars — convenient for table rendering."""
        return self.fingerprint.hex()[:8]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.algorithm}:{self.short}"


def derive_key(seed: str, algorithm: str = "ssh-ed25519") -> KeyIdentity:
    """Derive a stable key identity from an arbitrary seed string."""
    digest = hashlib.sha256(f"key|{algorithm}|{seed}".encode()).digest()
    return KeyIdentity(fingerprint=digest, algorithm=algorithm)


class KeyPool:
    """A finite pool of keys shared among many devices.

    ``reuse_rate`` is the probability that a new device draws a key from
    the shared pool instead of generating a unique one.  Pool keys are
    generated lazily on first draw so small experiments stay small.
    """

    #: Every pool holds SSH host keys.
    algorithm = "ssh-ed25519"

    def __init__(self, name: str, size: int, reuse_rate: float) -> None:
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        if not 0.0 <= reuse_rate <= 1.0:
            raise ValueError(f"reuse_rate must be in [0, 1], got {reuse_rate}")
        self.name = name
        self.size = size
        self.reuse_rate = reuse_rate
        self._unique_counter = 0

    def _pool_key(self, index: int) -> KeyIdentity:
        return derive_key(f"pool|{self.name}|{index}", self.algorithm)

    def draw(self, rng: random.Random) -> KeyIdentity:
        """Draw a key for a new device: shared or unique."""
        if rng.random() < self.reuse_rate:
            return self._pool_key(rng.randrange(self.size))
        self._unique_counter += 1
        return derive_key(
            f"unique|{self.name}|{self._unique_counter}|{rng.getrandbits(64)}",
            self.algorithm,
        )

def unique_fingerprints(keys: Sequence[KeyIdentity]) -> int:
    """Number of distinct keys in a sequence (Table 2's #Certs/Keys)."""
    return len({key.fingerprint for key in keys})
