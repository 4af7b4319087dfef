"""The unoptimized Table-3 title clustering: the clusterer's oracle.

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

from repro.analysis.levenshtein import (
    DEFAULT_THRESHOLD,
    ClusterStats,
    TitleGroup,
    distance,
)


def _matches(title, representative, threshold, stats):
    longest = max(len(title), len(representative))
    if longest == 0:
        return True
    if abs(len(title) - len(representative)) / longest > threshold:
        return False
    stats.pairs_compared += 1
    return distance(title, representative, stats=stats) / longest \
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
