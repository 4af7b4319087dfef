"""Unit and property tests for Levenshtein distance and title clustering.

The banded :func:`distance` is exact whenever the true distance fits
its bound, and no distance exceeds the longer string's length, so
:func:`exact` (bounded there) is the edit distance; every property
checks it against the full-table DP of :mod:`tests.levenshtein_oracle`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.levenshtein import (
    TitleClusterer,
    cluster_counts,
    distance,
    within,
)

from tests.levenshtein_oracle import full_distance, normalized_distance

SHORT_TEXT = st.text(alphabet="abcdef !", max_size=12)


def group_of(clusterer, title):
    """The group a title was assigned to, if any."""
    return next((group for group in clusterer.groups
                 if title in group.members), None)


def exact(left, right):
    """The banded distance under a bound no distance exceeds, checked
    against the oracle's full table."""
    result = distance(left, right, max(len(left), len(right)))
    assert result == full_distance(left, right)
    return result


class TestDistance:
    @pytest.mark.parametrize("left,right,expected", [
        ("", "", 0),
        ("abc", "abc", 0),
        ("abc", "", 3),
        ("", "abc", 3),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("FRITZ!Box 7590", "FRITZ!Box 7490", 1),
    ])
    def test_known_values(self, left, right, expected):
        assert exact(left, right) == expected

    @given(SHORT_TEXT, SHORT_TEXT)
    def test_symmetry(self, left, right):
        assert exact(left, right) == exact(right, left)

    @given(SHORT_TEXT, SHORT_TEXT)
    def test_bounds(self, left, right):
        d = exact(left, right)
        assert abs(len(left) - len(right)) <= d <= max(len(left), len(right))

    @given(SHORT_TEXT, SHORT_TEXT, SHORT_TEXT)
    @settings(max_examples=40)
    def test_triangle_inequality(self, a, b, c):
        assert exact(a, c) <= exact(a, b) + exact(b, c)

    @given(SHORT_TEXT)
    def test_identity(self, text):
        assert exact(text, text) == 0


class TestNormalized:
    def test_empty_pair(self):
        assert normalized_distance("", "") == 0.0

    def test_scales_to_one(self):
        assert normalized_distance("abc", "xyz") == 1.0

    def test_version_variation_within_quarter(self):
        """The paper's motivating case: version strings group together."""
        assert within("Plesk Obsidian 18.0.34", "Plesk Obsidian 18.0.52")

    def test_different_products_not_within(self):
        assert not within("FRITZ!Box", "D-LINK")

    @given(SHORT_TEXT, SHORT_TEXT)
    def test_range(self, left, right):
        assert 0.0 <= normalized_distance(left, right) <= 1.0

    def test_length_shortcut_consistent(self):
        # 'within' must agree with the exact computation.
        pairs = [("abcdefgh", "ab"), ("aaaa", "aaab"), ("x", "xy")]
        for left, right in pairs:
            assert within(left, right) == \
                (normalized_distance(left, right) <= 0.25)


class TestClusterer:
    def test_near_titles_group(self):
        clusterer = TitleClusterer()
        clusterer.add("FRITZ!Box 7590")
        clusterer.add("FRITZ!Box 7490")
        clusterer.add("D-LINK Router")
        assert len(clusterer.groups) == 2

    def test_counts_accumulate(self):
        clusterer = TitleClusterer()
        clusterer.add("FRITZ!Box", count=10)
        clusterer.add("FRITZ!Box", count=5)
        group = group_of(clusterer, "FRITZ!Box")
        assert group.count == 15

    def test_representative_is_first(self):
        clusterer = TitleClusterer()
        clusterer.add("Plesk Obsidian 18.0.34")
        group = clusterer.add("Plesk Obsidian 18.0.52")
        assert group.representative == "Plesk Obsidian 18.0.34"

    def test_exact_fast_path(self):
        clusterer = TitleClusterer()
        first = clusterer.add("Welcome to nginx!")
        second = clusterer.add("Welcome to nginx!")
        assert first is second

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            TitleClusterer(threshold=2.0)

    def test_cluster_counts_sorted(self):
        groups = cluster_counts([
            ("FRITZ!Box", 100),
            ("D-LINK", 10),
            ("FRITZ!Box 2", 3),
        ])
        assert groups[0].representative == "FRITZ!Box"
        assert groups[0].count == 103
        assert groups[1].count == 10

    def test_group_of_unknown(self):
        assert group_of(TitleClusterer(), "nope") is None


class TestBandedDistance:
    @pytest.mark.parametrize("left,right,expected", [
        ("", "", 0),
        ("abc", "abc", 0),
        ("kitten", "sitting", 3),
        ("FRITZ!Box 7590", "FRITZ!Box 7490", 1),
        ("flaw", "lawn", 2),
    ])
    def test_known_values_inside_band(self, left, right, expected):
        for bound in (expected, expected + 1, expected + 5):
            assert distance(left, right, upper_bound=bound) == expected

    @pytest.mark.parametrize("left,right,true", [
        ("kitten", "sitting", 3),
        ("abcdef", "ghijkl", 6),
        ("short", "a very different long string", 25),
    ])
    def test_exceeding_band_reports_above_bound(self, left, right, true):
        for bound in range(true):
            assert distance(left, right, upper_bound=bound) > bound

    def test_bound_zero_is_equality(self):
        assert distance("abc", "abc", upper_bound=0) == 0
        assert distance("abc", "abd", upper_bound=0) > 0

    def test_length_gap_short_circuits(self):
        from repro.analysis.levenshtein import ClusterStats

        stats = ClusterStats()
        result = distance("ab", "abcdefgh", upper_bound=3, stats=stats)
        assert result > 3
        assert stats.dp_cells == 0  # rejected before any DP

    @given(SHORT_TEXT, SHORT_TEXT, st.integers(min_value=0, max_value=12))
    @settings(max_examples=200)
    def test_agrees_with_plain_distance(self, left, right, bound):
        true = full_distance(left, right)
        banded = distance(left, right, upper_bound=bound)
        assert (banded == true) if true <= bound else (banded > bound)
