"""Partition table behind the columnar IID-classification kernel.

:meth:`repro.ipv6.columnar.AddressColumn.class_counts` classifies
interface identifiers by the Shannon byte-entropy of their 8 IID bytes.
Computing the entropy per address would be slow (and float-summation
order would vary with the byte order of each address), so the kernel
reduces every IID to its number of distinct bytes, a collapse of the
*partition signature* — the multiset of its byte counts — tabulated
here.

Why the table is exact
----------------------

An 8-byte identifier has only 22 possible byte-count partitions of 8,
and its entropy is a pure function of the partition.  The scalar path
(:func:`repro.ipv6.iid.byte_entropy`) sums the per-byte terms in
first-occurrence order, which can differ from the canonical order used
here by a final ulp — but the *class* comparison (``entropy <= 1.0`` /
``<= 2.0``) can never disagree: every partition whose entropy touches a
threshold is composed exclusively of dyadic probabilities (1/8, 1/4,
1/2), whose terms are exact IEEE doubles and sum exactly in any order,
and every other partition sits far (>= 0.05 bits) from both thresholds.
The guard at the bottom of this module enforces that margin at import
time, and ``tests/test_ipv6_columnar.py`` re-proves the table against
the scalar formula for every partition, and the kernel's
distinct-byte-count rule against the table.

The partitions are enumerated through the 7-bit *boundary mask* of a
row-sorted IID (bit ``i`` set iff ``sorted[i] != sorted[i+1]``): the
128 masks reach every partition of 8.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.ipv6.iid import LOW_ENTROPY_MAX, MEDIUM_ENTROPY_MAX

#: Width of an interface identifier, in bytes.
IID_BYTES = 8

#: Class codes, aligned with the order of :data:`repro.ipv6.iid.CLASSES`.
(
    CODE_ZERO,
    CODE_LOW_BYTE,
    CODE_LOW_TWO_BYTES,
    CODE_EUI64,
    CODE_LOW_ENTROPY,
    CODE_MEDIUM_ENTROPY,
    CODE_HIGH_ENTROPY,
) = range(7)


def entropy_of_counts(counts: Tuple[int, ...]) -> float:
    """Canonical byte entropy of a byte-count partition (bits/byte)."""
    total = sum(counts)
    if not total:
        return 0.0
    return -sum(
        (count / total) * math.log2(count / total) for count in counts
    ) + 0.0


def entropy_code(entropy: float) -> int:
    """Map an entropy value onto the low/medium/high class codes."""
    if entropy <= LOW_ENTROPY_MAX:
        return CODE_LOW_ENTROPY
    if entropy <= MEDIUM_ENTROPY_MAX:
        return CODE_MEDIUM_ENTROPY
    return CODE_HIGH_ENTROPY


def runs_of_mask(mask: int) -> Tuple[int, ...]:
    """Descending run-length partition encoded by a 7-bit boundary mask."""
    runs: List[int] = []
    length = 1
    for bit in range(IID_BYTES - 1):
        if (mask >> bit) & 1:
            runs.append(length)
            length = 1
        else:
            length += 1
    runs.append(length)
    return tuple(sorted(runs, reverse=True))


#: Boundary mask -> descending byte-count partition.
MASK_RUNS: Tuple[Tuple[int, ...], ...] = tuple(
    runs_of_mask(mask) for mask in range(1 << (IID_BYTES - 1))
)

#: Every byte-count partition of 8, with its canonical entropy.
PARTITION_ENTROPY: Dict[Tuple[int, ...], float] = {
    runs: entropy_of_counts(runs) for runs in MASK_RUNS
}

#: Partition -> entropy class code.
PARTITION_CODE: Dict[Tuple[int, ...], int] = {
    runs: entropy_code(entropy) for runs, entropy in PARTITION_ENTROPY.items()
}

# Import-time guard for the exactness argument above: any partition that
# is not exactly on a threshold must keep a wide margin from it, so a
# 1-ulp summation-order difference can never flip a classification.
for _runs, _entropy in PARTITION_ENTROPY.items():
    for _threshold in (LOW_ENTROPY_MAX, MEDIUM_ENTROPY_MAX):
        if _entropy != _threshold and abs(_entropy - _threshold) < 1e-9:
            raise AssertionError(
                f"partition {_runs} entropy {_entropy!r} is too close to "
                f"threshold {_threshold}; the lookup-table classification "
                "would not be order-independent"
            )
del _runs, _entropy, _threshold
