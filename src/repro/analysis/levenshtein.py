"""Normalized Levenshtein distance and greedy title clustering.

The paper groups HTML page titles "if their Levenshtein distance
normalized to 0–1 is at most 0.25", collapsing minor version-number
variations into one device-type group (Section 4.3.1).  We implement
the dynamic-programming distance as a banded (Ukkonen) early-exit
threshold test and a greedy centroid clustering on top.

Performance model (DESIGN.md §9):

* :func:`distance` takes an ``upper_bound``; the DP is confined to the
  diagonal band of width ``upper_bound`` and abandoned as soon as
  every cell of a row exceeds the bound.  The result is exact whenever
  the true distance is ``<= upper_bound`` and *some* value
  ``> upper_bound`` otherwise — which is all a threshold test needs.
* :class:`TitleClusterer` prunes candidate groups before any DP runs:
  representatives are bucketed by length (only length bands that can
  possibly satisfy the threshold are scanned) and rejected by a
  character-multiset lower bound.  Pruning never changes which group
  wins: the first *feasible* match is the first match, because a
  pruned candidate can never satisfy :func:`within`.  The unoptimized
  scan (every group in order, the full DP table) and the normalized
  distance are kept only under ``tests/``, as the oracle the
  equivalence properties and the Table-3 bench compare against.
* All work is tallied into a :class:`ClusterStats` that can be
  published as ``analysis_*`` metrics through :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: The paper's grouping threshold on normalized distance.
DEFAULT_THRESHOLD = 0.25


@dataclass
class ClusterStats:
    """Work counters of one clustering / distance workload.

    Deterministic under a fixed input (no wall time lives here), so
    the published ``analysis_*`` counters are part of the golden metric
    comparison.
    """

    #: Candidate pairs that reached the distance DP.
    pairs_compared: int = 0
    #: DP cells actually filled in (the O(n·m) budget being saved).
    dp_cells: int = 0
    #: Banded runs abandoned because a whole row exceeded the bound.
    band_exits: int = 0
    #: Candidate groups skipped before any DP (length band / multiset).
    candidates_pruned: int = 0

    def publish(self, registry, **labels) -> None:
        """Record the tallies as ``analysis_*`` counters on ``registry``.

        Every series is created even at zero, so every analysis run
        exposes the same metric surface.
        """
        registry.counter("analysis_pairs_compared_total",
                         **labels).inc(self.pairs_compared)
        registry.counter("analysis_dp_cells_total",
                         **labels).inc(self.dp_cells)
        registry.counter("analysis_band_exits_total",
                         **labels).inc(self.band_exits)
        registry.counter("analysis_candidates_pruned_total",
                         **labels).inc(self.candidates_pruned)


def _banded_distance(left: str, right: str, bound: int,
                     stats: Optional[ClusterStats]) -> int:
    """Ukkonen band: only cells with ``|row - col| <= bound`` can lie on
    an alignment of cost ``<= bound``, so nothing else is computed; a
    row whose computed cells all exceed the bound ends the run early.
    """
    n, m = len(left), len(right)
    infinity = bound + 1
    previous = [col if col <= bound else infinity for col in range(m + 1)]
    for row in range(1, n + 1):
        low = max(1, row - bound)
        high = min(m, row + bound)
        char_left = left[row - 1]
        current = [infinity] * (m + 1)
        if row <= bound:
            current[0] = row
        best = current[0]
        for col in range(low, high + 1):
            cost = 0 if char_left == right[col - 1] else 1
            value = previous[col - 1] + cost
            deletion = previous[col] + 1
            if deletion < value:
                value = deletion
            insertion = current[col - 1] + 1
            if insertion < value:
                value = insertion
            if value > infinity:
                value = infinity
            current[col] = value
            if value < best:
                best = value
        if stats is not None:
            stats.dp_cells += high - low + 1
        if best > bound:
            if stats is not None:
                stats.band_exits += 1
            return infinity
        previous = current
    return previous[m] if previous[m] <= bound else infinity


def distance(left: str, right: str, upper_bound: int,
             stats: Optional[ClusterStats] = None) -> int:
    """Levenshtein edit distance (insert/delete/substitute), bounded.

    The computation runs inside the Ukkonen band and abandons a row
    once every cell exceeds ``upper_bound``: the result is exact
    whenever the true distance is ``<= upper_bound``, and *some* value
    ``> upper_bound`` (not necessarily the true distance) otherwise.
    ``stats``, when given, accumulates DP-cell and early-exit tallies.
    """
    if upper_bound < 0:
        raise ValueError(f"upper_bound must be >= 0, got {upper_bound}")
    if left == right:
        return 0
    if not left or not right:
        return max(len(left), len(right))
    if abs(len(left) - len(right)) > upper_bound:
        return upper_bound + 1
    return _banded_distance(left, right, upper_bound, stats)


def distance_bound(threshold: float, longest: int) -> int:
    """The largest integer distance ``d`` with ``d / longest <= threshold``.

    This is the banded DP's ``upper_bound`` for a pair whose longer
    string has ``longest`` characters: ``d <= bound`` is *exactly*
    equivalent to ``d / longest <= threshold`` under float division,
    so the banded verdict and the normalized-distance test can never
    disagree (the adjustment loops absorb any float rounding in
    ``threshold * longest``).
    """
    bound = min(int(threshold * longest), longest)
    while bound + 1 <= longest and (bound + 1) / longest <= threshold:
        bound += 1
    while bound > 0 and bound / longest > threshold:
        bound -= 1
    return bound


def within(left: str, right: str,
           threshold: float = DEFAULT_THRESHOLD) -> bool:
    """Whether two strings belong to the same group.

    Uses the length-difference lower bound to skip the DP for clearly
    different strings, then the banded DP bounded at the threshold,
    whose verdict is always the full table's.
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return True
    bound = distance_bound(threshold, longest)
    if abs(len(left) - len(right)) > bound:
        return False
    return distance(left, right, bound) <= bound


def _multiset_signature(text: str) -> Dict[str, int]:
    """Character multiset of ``text`` (input to the multiset bound)."""
    signature: Dict[str, int] = {}
    for char in text:
        signature[char] = signature.get(char, 0) + 1
    return signature


def _multiset_lower_bound(left_sig: Dict[str, int],
                          right_sig: Dict[str, int]) -> int:
    """A Levenshtein lower bound from character counts alone.

    A substitution moves at most two units of multiset difference, an
    insert/delete one, so ``distance >= ceil(sum(|Δ|) / 2)``.
    """
    difference = 0
    for char, count in left_sig.items():
        difference += abs(count - right_sig.get(char, 0))
    for char, count in right_sig.items():
        if char not in left_sig:
            difference += count
    return (difference + 1) // 2


@dataclass
class TitleGroup:
    """One cluster of near-identical titles."""

    representative: str
    members: Dict[str, int] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return sum(self.members.values())

    def add(self, title: str, count: int = 1) -> None:
        self.members[title] = self.members.get(title, 0) + count


class TitleClusterer:
    """Greedy centroid clustering under the normalized threshold.

    Items are matched against existing representatives in insertion
    order; the representative is the group's first (and, fed in
    frequency order, most common) title — matching how the paper labels
    groups by their dominant title.

    The groups are byte-identical to the unoptimized reference scan's
    (every group in order, the full DP table): pruning only ever
    removes candidates that :func:`within` would reject anyway, and the
    banded distance returns the same verdict as the full table, so the
    first surviving match is the same group either way.
    """

    def __init__(self, threshold: float = DEFAULT_THRESHOLD, *,
                 stats: Optional[ClusterStats] = None) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.stats = stats if stats is not None else ClusterStats()
        self.groups: List[TitleGroup] = []
        #: exact-title fast path: title -> group
        self._assignments: Dict[str, TitleGroup] = {}
        #: representative length -> group indices, ascending.
        self._by_length: Dict[int, List[int]] = {}
        #: group index -> representative character multiset.
        self._signatures: List[Dict[str, int]] = []

    # -- matching ----------------------------------------------------------

    def _candidate_indices(self, title: str) -> List[int]:
        """Group indices whose representative length can possibly match,
        in insertion (= group index) order."""
        length = len(title)
        buckets = []
        for rep_length in sorted(self._by_length):
            longest = max(length, rep_length)
            if longest == 0 or abs(length - rep_length) <= \
                    distance_bound(self.threshold, longest):
                buckets.append(self._by_length[rep_length])
        if len(buckets) == 1:
            return buckets[0]
        merged: List[int] = []
        for bucket in buckets:
            merged.extend(bucket)
        merged.sort()
        return merged

    def _match(self, title: str) -> Optional[TitleGroup]:
        """The first group, in insertion order, within the threshold.

        Candidates outside the length bands are pruned before the loop,
        and a candidate whose multiset bound already exceeds the
        distance bound is pruned inside it; the rest run the banded DP.
        """
        stats = self.stats
        candidates = self._candidate_indices(title)
        stats.candidates_pruned += len(self.groups) - len(candidates)
        title_sig = _multiset_signature(title)
        for index in candidates:
            representative = self.groups[index].representative
            bound = distance_bound(self.threshold,
                                   max(len(title), len(representative)))
            if _multiset_lower_bound(title_sig,
                                     self._signatures[index]) > bound:
                stats.candidates_pruned += 1
                continue
            stats.pairs_compared += 1
            if distance(title, representative, upper_bound=bound,
                        stats=stats) <= bound:
                return self.groups[index]
        return None

    # -- the public clustering API -----------------------------------------

    def add(self, title: str, count: int = 1) -> TitleGroup:
        """Assign a title (with multiplicity) to its group."""
        group = self._assignments.get(title)
        if group is None:
            group = self._match(title)
            if group is None:
                group = TitleGroup(representative=title)
                self._by_length.setdefault(len(title), []).append(
                    len(self.groups))
                self._signatures.append(_multiset_signature(title))
                self.groups.append(group)
            self._assignments[title] = group
        group.add(title, count)
        return group


def cluster_counts(titles: Iterable[Tuple[str, int]],
                   threshold: float = DEFAULT_THRESHOLD, *,
                   stats: Optional[ClusterStats] = None) -> List[TitleGroup]:
    """Cluster pre-counted titles, feeding most frequent first."""
    clusterer = TitleClusterer(threshold, stats=stats)
    for title, count in sorted(titles, key=lambda item: -item[1]):
        clusterer.add(title, count)
    return sorted(clusterer.groups, key=lambda group: -group.count)
