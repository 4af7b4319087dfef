"""Columnar address engine: unit + equivalence suite.

The contract under test (DESIGN §10): every kernel of
:class:`repro.ipv6.columnar.AddressColumn` produces results identical
to the scalar reference functions (`iid.classify_iid`/`profile_scalar`,
`address.network_key`).  The kernels are pure Python and need nothing
beyond the standard library.
"""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ipv6 import address as addr
from repro.ipv6 import eui64, iid
from repro.ipv6 import _columnar_tables as tables
from repro.ipv6.columnar import AddressColumn

addresses_st = st.lists(
    st.integers(min_value=0, max_value=2**128 - 1), max_size=60)

# Weighted generator hitting every IID class, duplicates included.
structured_addresses_st = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**128 - 1),
        st.builds(lambda p, i: addr.with_iid(p << 64, i),
                  st.integers(min_value=0, max_value=2**64 - 1),
                  st.integers(min_value=0, max_value=0xFFFF)),
        st.builds(lambda p, m: addr.with_iid(p << 64, eui64.mac_to_iid(m)),
                  st.integers(min_value=0, max_value=2**64 - 1),
                  st.integers(min_value=0, max_value=2**48 - 1)),
        st.builds(lambda p, b: addr.with_iid(p << 64, b * 0x0101010101010101),
                  st.integers(min_value=0, max_value=2**64 - 1),
                  st.integers(min_value=0, max_value=255)),
    ),
    max_size=60)

levels_st = st.sampled_from((0, 1, 13, 32, 48, 56, 63, 64, 65, 96, 127, 128))


class TestConstruction:
    def test_from_ints_round_trip(self):
        values = [0, 1, 2**128 - 1, addr.parse("2001:db8::1")]
        column = AddressColumn.from_ints(values)
        assert list(column) == values
        assert len(column) == 4

    def test_coerce_passthrough(self):
        column = AddressColumn.from_ints([1])
        assert AddressColumn.coerce(column) is column
        assert list(AddressColumn.coerce(iter([3, 4]))) == [3, 4]

    def test_bad_buffer_length(self):
        with pytest.raises(ValueError):
            AddressColumn(b"\x00" * 15)

    def test_bad_values(self):
        with pytest.raises(ValueError):
            AddressColumn.from_ints([-1])
        with pytest.raises(ValueError):
            AddressColumn.from_ints([2**128])

    def test_repr_and_bool(self):
        assert not AddressColumn()
        column = AddressColumn.from_ints([1])
        assert column
        assert "n=1" in repr(column)


class TestEntropyTables:
    """Prove the lookup tables against the scalar entropy formula."""

    def test_partitions_cover_all_masks(self):
        assert len(tables.MASK_RUNS) == 128
        assert all(sum(runs) == 8 for runs in tables.MASK_RUNS)
        # All 22 partitions of 8 are reachable from some boundary mask.
        assert len(tables.PARTITION_ENTROPY) == 22

    def test_partition_entropy_matches_scalar_formula(self):
        for runs, entropy in tables.PARTITION_ENTROPY.items():
            # Realize the partition as a concrete byte string and feed
            # the scalar path; the float may differ by summation order
            # only, never enough to cross a class threshold.
            realized = b"".join(bytes([value] * count)
                                for value, count in enumerate(runs))
            scalar = iid.byte_entropy(realized)
            assert scalar == pytest.approx(entropy, abs=1e-12)
            assert tables.entropy_code(scalar) == tables.entropy_code(entropy)

    def test_distinct_count_rule_matches_table(self):
        """The pure-python kernel's d-rule == the full partition table."""
        for runs, code in tables.PARTITION_CODE.items():
            spread = len(runs)
            if spread > 5:
                predicted = tables.CODE_HIGH_ENTROPY
            elif spread < 3:
                predicted = tables.CODE_LOW_ENTROPY
            elif spread == 5 and max(runs) != 4:
                predicted = tables.CODE_HIGH_ENTROPY
            else:
                predicted = tables.CODE_MEDIUM_ENTROPY
            assert predicted == code, runs


class TestScalarEquivalence:
    """Columnar kernels == scalar loops, property by property."""

    @given(values=structured_addresses_st)
    def test_class_counts(self, values):
        column = AddressColumn.from_ints(values)
        expected = Counter(iid.classify_iid(value) for value in values)
        got = {label: count
               for label, count in column.class_counts().items() if count}
        assert got == dict(expected)

    @given(values=structured_addresses_st)
    def test_profile_matches_scalar(self, values):
        column = AddressColumn.from_ints(values)
        assert iid.profile(column).as_dict() == \
            iid.profile_scalar(values).as_dict()

    @given(values=addresses_st, level=levels_st)
    def test_network_key_counts(self, values, level):
        column = AddressColumn.from_ints(values)
        expected = Counter(addr.network_key(value, level) for value in values)
        assert column.network_key_counts(level) == dict(expected)

    @given(values=addresses_st, level=levels_st)
    def test_network_key_counts_ordered(self, values, level):
        column = AddressColumn.from_ints(values)
        ordered = column.network_key_counts_ordered(level)
        assert dict(ordered) == column.network_key_counts(level)
        first_seen = list(dict.fromkeys(
            addr.network_key(value, level) for value in values))
        assert [key for key, _ in ordered] == first_seen
