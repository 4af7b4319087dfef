"""Columnar address engine: packed address sets with whole-column kernels.

The paper's corpus is 3.04 B NTP-observed addresses; walking Python
integers one ``classify_iid`` call at a time does not survive that
scale.  An :class:`AddressColumn` stores an address *sequence* as one
contiguous buffer of 16 big-endian bytes per address and runs the
address-set analyses the repo needs — IID-class counts (Figure 1)
and prefix bucketing at arbitrary levels (dealiasing, AS category
shares) — as whole-column kernels.  The kernels lean on C-level
``bytes`` operations — slicing, ``set``, ``bytes.count``,
``struct.unpack`` — so the column beats the per-address scalar path
several times over (gated in ``benchmarks/bench_fig1_structure.py``).

The scalar functions in :mod:`repro.ipv6.iid` and
:mod:`~repro.ipv6.address` remain the semantic reference; the
equivalence contract (identical counts and buckets) is
property-tested in ``tests/test_ipv6_columnar.py``.  See DESIGN.md §10.
"""

from __future__ import annotations

import struct
from collections import Counter
from itertools import repeat
from operator import lshift, or_, rshift
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.ipv6 import iid as iidmod
from repro.ipv6._columnar_tables import (
    CODE_EUI64,
    CODE_HIGH_ENTROPY,
    CODE_LOW_BYTE,
    CODE_LOW_ENTROPY,
    CODE_LOW_TWO_BYTES,
    CODE_MEDIUM_ENTROPY,
    CODE_ZERO,
)

#: Bytes per packed address.
ITEM_BYTES = 16

_ZERO6 = b"\x00" * 6


def _pack(value: int) -> bytes:
    try:
        return value.to_bytes(ITEM_BYTES, "big")
    except (OverflowError, AttributeError) as error:
        raise ValueError(
            f"not a 128-bit unsigned address value: {value!r}") from error


class AddressColumn:
    """An address sequence packed 16 bytes per address.

    The column preserves input order and duplicates (it is a sequence,
    not a set) so that analyses which weight by occurrence — Figure 1
    shares, density denominators — match the scalar path exactly.
    """

    __slots__ = ("_data",)

    def __init__(self, data: bytes = b"") -> None:
        if len(data) % ITEM_BYTES:
            raise ValueError(
                f"packed column length {len(data)} is not a multiple "
                f"of {ITEM_BYTES}")
        self._data = bytes(data)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "AddressColumn":
        """Build from an iterable of integer addresses (streaming)."""
        buffer = bytearray()
        for value in values:
            buffer += _pack(value)
        return cls(bytes(buffer))

    @classmethod
    def coerce(cls, addresses: Union["AddressColumn", Iterable[int]]
               ) -> "AddressColumn":
        """Return ``addresses`` itself if already a column, else pack it."""
        if isinstance(addresses, AddressColumn):
            return addresses
        return cls.from_ints(addresses)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._data) // ITEM_BYTES

    def __iter__(self) -> Iterator[int]:
        data = self._data
        for offset in range(0, len(data), ITEM_BYTES):
            yield int.from_bytes(data[offset:offset + ITEM_BYTES], "big")

    def __repr__(self) -> str:
        return f"AddressColumn(n={len(self)})"

    # -- structure kernels -------------------------------------------------

    def class_counts(self) -> Dict[str, int]:
        """Addresses per IID class, keyed in ``iid.CLASSES`` order.

        The entropy classes are decided by the *distinct-byte-count
        rule*, a collapse of the partition table in
        ``_columnar_tables``: with ``d`` distinct bytes among 8, every
        partition with ``d <= 2`` has entropy <= 1.0 (low), every ``d``
        in {3, 4} lands in (1.0, 2.0] (medium), ``d >= 6`` always
        exceeds 2.0 (high), and ``d == 5`` is medium exactly for the
        [4,1,1,1,1] partition (entropy 2.0).  The rule is proven against
        the table in ``tests/test_ipv6_columnar.py``.
        """
        counts = [0] * 7
        data = self._data
        for offset in range(8, len(data), ITEM_BYTES):
            identifier = data[offset:offset + 8]
            if identifier[:6] == _ZERO6:
                if identifier[6]:
                    counts[CODE_LOW_TWO_BYTES] += 1
                elif identifier[7]:
                    counts[CODE_LOW_BYTE] += 1
                else:
                    counts[CODE_ZERO] += 1
            elif identifier[3] == 0xFF and identifier[4] == 0xFE:
                counts[CODE_EUI64] += 1
            else:
                distinct = set(identifier)
                spread = len(distinct)
                if spread > 5:
                    counts[CODE_HIGH_ENTROPY] += 1
                elif spread < 3:
                    counts[CODE_LOW_ENTROPY] += 1
                elif spread == 5 and \
                        max(map(identifier.count, distinct)) != 4:
                    counts[CODE_HIGH_ENTROPY] += 1
                else:
                    counts[CODE_MEDIUM_ENTROPY] += 1
        return dict(zip(iidmod.CLASSES, counts))

    # -- prefix bucketing --------------------------------------------------

    def network_key_counts(self, level: int) -> Dict[int, int]:
        """Distinct ``/level`` network key -> number of rows in it.

        Keys are shifted down (``value >> (128 - level)``), matching
        :func:`repro.ipv6.address.network_key`, and come in
        first-occurrence order.
        """
        if not 0 <= level <= 128:
            raise ValueError(
                f"prefix length must be in [0, 128], got {level}")
        count = len(self)
        if count == 0:
            return {}
        if level == 0:
            return {0: count}
        # The column as alternating (high, low) 64-bit big-endian words.
        words = struct.unpack(f">{2 * count}Q", self._data)
        high = words[0::2]
        if level <= 64:
            return dict(Counter(map(rshift, high, repeat(64 - level))))
        low = words[1::2]
        return dict(Counter(map(
            or_, map(lshift, high, repeat(level - 64)),
            map(rshift, low, repeat(128 - level)))))

    def network_key_counts_ordered(self, level: int) -> List[Tuple[int, int]]:
        """``(key, count)`` pairs in first-occurrence order."""
        return list(self.network_key_counts(level).items())
