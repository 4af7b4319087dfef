"""The unoptimized Levenshtein distance and Table-3 title clustering.

:func:`full_distance` is the classic O(n·m) dynamic program over the
whole table, and :func:`normalized_distance` scales it into [0, 1] by
the longer string's length; the banded
:func:`repro.analysis.levenshtein.distance` and
:func:`~repro.analysis.levenshtein.within` are checked against them.

:func:`reference_cluster_counts` clusters as Section 4.3.1 states it:
titles, most frequent first, each join the first group (in insertion
order) whose representative is within normalized Levenshtein distance
``threshold``, computed over the full DP table, or found a group of
their own.  It has no length bands, no multiset bound and no band.
:func:`repro.analysis.levenshtein.cluster_counts` must give
byte-identical groups; the equivalence properties, the golden study
audit and the Table-3 fast-path bench compare it against this scan.

The tallies follow the clusterer's conventions, so both fill one
report: a pair counts as compared once it passes the length-difference
test, and the full table of a pair fills ``len(left) * len(right)`` DP
cells.
"""

from repro.analysis.levenshtein import DEFAULT_THRESHOLD, ClusterStats, TitleGroup


def full_distance(left, right, stats=None):
    """The exact edit distance (insert/delete/substitute) from the full
    DP table; ``stats`` counts the table's cells."""
    if left == right:
        return 0
    if not left or not right:
        return max(len(left), len(right))
    if len(left) < len(right):
        left, right = right, left
    if stats is not None:
        stats.dp_cells += len(left) * len(right)
    previous = list(range(len(right) + 1))
    for row, char_left in enumerate(left, start=1):
        current = [row]
        for col, char_right in enumerate(right, start=1):
            cost = 0 if char_left == char_right else 1
            current.append(min(
                previous[col] + 1,        # deletion
                current[col - 1] + 1,     # insertion
                previous[col - 1] + cost  # substitution
            ))
        previous = current
    return previous[-1]


def normalized_distance(left, right):
    """:func:`full_distance` scaled into [0, 1] by the longer string's
    length; two empty strings are identical (0.0)."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 0.0
    return full_distance(left, right) / longest


def _matches(title, representative, threshold, stats):
    longest = max(len(title), len(representative))
    if longest == 0:
        return True
    if abs(len(title) - len(representative)) / longest > threshold:
        return False
    stats.pairs_compared += 1
    return full_distance(title, representative, stats) / longest \
        <= threshold


def reference_cluster_counts(titles, threshold=DEFAULT_THRESHOLD, *,
                             stats=None):
    """Cluster pre-counted ``(title, count)`` pairs; largest group first."""
    stats = stats if stats is not None else ClusterStats()
    groups = []
    assigned = {}
    for title, count in sorted(titles, key=lambda item: -item[1]):
        group = assigned.get(title)
        if group is None:
            group = next((candidate for candidate in groups
                          if _matches(title, candidate.representative,
                                      threshold, stats)), None)
            if group is None:
                group = TitleGroup(representative=title)
                groups.append(group)
            assigned[title] = group
        group.add(title, count)
    return sorted(groups, key=lambda group: -group.count)
