"""The analysis fast path: banded distance, pruning, the analysis bundle.

Two equivalence claims hold the fast path together, and each gets a
property here:

* the banded DP returns the exact distance whenever the true distance
  fits the bound, and *some* value above the bound otherwise;
* the pruned+banded clusterer emits byte-identical groups to the
  unoptimized reference scan (:mod:`tests.levenshtein_oracle`) on
  arbitrary corpora, comparing no more pairs.

On top, the bundle :func:`run_analysis` assembles must agree with the
security module's own headline computation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import devicetypes
from repro.analysis.levenshtein import (
    ClusterStats,
    cluster_counts,
    distance,
    distance_bound,
    within,
)
from repro.analysis.bundle import run_analysis
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.scan.result import (
    BrokerGrab,
    CoapGrab,
    HttpGrab,
    ScanResults,
    SshGrab,
    TlsObservation,
)

from tests.levenshtein_oracle import (
    full_distance,
    normalized_distance,
    reference_cluster_counts,
)

#: Small alphabet so random strings actually collide within threshold.
TITLES = st.text(alphabet="ab-XY 0123", max_size=14)


class TestBandedDistanceProperties:
    @given(TITLES, TITLES, st.integers(min_value=0, max_value=16))
    @settings(max_examples=300)
    def test_banded_exact_within_bound(self, left, right, bound):
        """Banded result == the full table's whenever the truth fits."""
        true = full_distance(left, right)
        banded = distance(left, right, upper_bound=bound)
        if true <= bound:
            assert banded == true
        else:
            assert banded > bound

    @given(TITLES, TITLES)
    @settings(max_examples=200)
    def test_within_banded_matches_legacy_float_compare(self, left, right):
        """The banded verdict == the seed's normalized-distance test."""
        for threshold in (0.0, 0.1, 0.25, 0.5, 1.0):
            legacy = normalized_distance(left, right) <= threshold \
                if max(len(left), len(right)) else True
            assert within(left, right, threshold) == legacy

    @given(st.floats(min_value=0.0, max_value=1.0,
                     allow_nan=False, allow_infinity=False),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=200)
    def test_distance_bound_is_exact(self, threshold, longest):
        """bound is the largest d with d/longest <= threshold, exactly."""
        bound = distance_bound(threshold, longest)
        assert 0 <= bound <= longest
        if bound:
            assert bound / longest <= threshold
        if bound < longest:
            assert (bound + 1) / longest > threshold

    def test_band_saves_cells_and_counts_exits(self):
        plain = ClusterStats()
        fast = ClusterStats()
        left, right = "FRITZ!Box 7590 Router", "totally different text!"
        full_distance(left, right, plain)
        result = distance(left, right, upper_bound=3, stats=fast)
        assert result > 3
        assert fast.band_exits == 1
        assert 0 < fast.dp_cells < plain.dp_cells

    def test_bound_zero_is_equality_test(self):
        assert distance("same", "same", upper_bound=0) == 0
        assert distance("same", "sane", upper_bound=0) > 0

    def test_negative_bound_rejected(self):
        try:
            distance("a", "b", upper_bound=-1)
        except ValueError:
            pass
        else:
            raise AssertionError("upper_bound=-1 accepted")


def _shape(groups):
    return [(g.representative, dict(g.members)) for g in groups]


class TestClustererEquivalence:
    @given(st.lists(st.tuples(TITLES, st.integers(min_value=1, max_value=9)),
                    max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_pruned_equals_reference_on_random_corpora(self, counts):
        fast_stats = ClusterStats()
        plain_stats = ClusterStats()
        fast = cluster_counts(counts, stats=fast_stats)
        plain = reference_cluster_counts(counts, stats=plain_stats)
        assert _shape(fast) == _shape(plain)
        assert fast_stats.pairs_compared <= plain_stats.pairs_compared

    def test_version_variants_still_group(self):
        corpus = [("FRITZ!Box 7590", 10), ("FRITZ!Box 7490", 5),
                  ("FRITZ!Box 5590", 2), ("Plesk Obsidian", 4)]
        fast = cluster_counts(corpus)
        assert _shape(fast) == _shape(reference_cluster_counts(corpus))
        assert fast[0].representative == "FRITZ!Box 7590"
        assert set(fast[0].members) == {"FRITZ!Box 7590", "FRITZ!Box 7490",
                                        "FRITZ!Box 5590"}

    def test_pruning_actually_prunes(self):
        corpus = [(f"device type {i:04d} banner", 1) for i in range(20)]
        corpus += [("x", 1), ("this is a much longer unrelated title", 1)]
        stats = ClusterStats()
        cluster_counts(corpus, stats=stats)
        assert stats.candidates_pruned > 0


class TestMetricsPublication:
    def test_http_title_groups_publishes_counters(self):
        results = ScanResults()
        for i, title in enumerate(["FRITZ!Box 7590", "FRITZ!Box 7490",
                                   "Plesk Obsidian"]):
            results.https.append(HttpGrab(
                address=i, time=0.0, port=443, ok=True, status=200,
                title=title,
                tls=TlsObservation(ok=True, fingerprint=bytes([i]))))
        registry = MetricsRegistry()
        with use_registry(registry):
            devicetypes.http_title_groups(results, dataset="ntp")
        counters = {(entry["name"], tuple(sorted(entry["labels"].items())))
                    for entry in registry.snapshot()["counters"]}
        expected_labels = (("dataset", "ntp"), ("table", "table3_http"))
        for name in ("analysis_pairs_compared_total",
                     "analysis_dp_cells_total",
                     "analysis_band_exits_total",
                     "analysis_candidates_pruned_total"):
            assert (name, expected_labels) in counters, name
        assert not registry.find("analysis_cache_hits_total")


def _synthetic_results(label, http=12, salt=0):
    results = ScanResults(label=label)
    for i in range(http):
        results.https.append(HttpGrab(
            address=i + salt, time=0.0, port=443, ok=True, status=200,
            title=f"FRITZ!Box 7{(i + salt) % 6}90",
            tls=TlsObservation(ok=True,
                               fingerprint=bytes([i % 5, salt]) + b"fp")))
    results.ssh.append(SshGrab(
        address=100 + salt, time=0.0, ok=True,
        banner="SSH-2.0-OpenSSH_8.4p1 Debian-5",
        software="OpenSSH_8.4p1", comment="Debian-5",
        key_fingerprint=bytes([salt]) + b"key"))
    results.mqtt.append(BrokerGrab(
        address=200 + salt, time=0.0, port=1883, protocol="mqtt",
        ok=True, open_access=None))
    results.mqtts.append(BrokerGrab(
        address=200 + salt, time=0.0, port=8883, protocol="mqtts",
        ok=True, open_access=False))
    results.amqp.append(BrokerGrab(
        address=201 + salt, time=0.0, port=5672, protocol="amqp",
        ok=True, open_access=True))
    results.coap.append(CoapGrab(
        address=300 + salt, time=0.0, ok=True, resources=("/castDevice",)))
    return results


class TestParallelAnalysisDriver:
    """:func:`run_analysis`, the analysis entry point behind
    ``api.study_tables`` and ``api.analyze``."""

    def test_secure_share_matches_security_module(self):
        from repro.analysis import security

        ntp = _synthetic_results("ntp")
        hitlist = _synthetic_results("hitlist", salt=3)
        with use_registry():
            bundle = run_analysis(ntp, hitlist)
        expected = security.security_gap(ntp, hitlist)
        assert bundle.security_gap() == expected
