"""Unit tests for the metrics subsystem (repro.obs)."""

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    current_registry,
    use_registry,
)


class TestCounter:
    def test_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestHistogramBuckets:
    """Fixed-boundary edge cases (the satellite's explicit target)."""

    def test_value_on_boundary_lands_in_that_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        histogram.observe(2.0)
        assert histogram.counts == [0, 1, 0, 0]

    def test_value_below_first_boundary(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(0.0)
        histogram.observe(-3.0)
        assert histogram.counts[0] == 2

    def test_value_above_last_boundary_overflows(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(99.0)
        assert histogram.counts == [0, 0, 1]

    def test_counts_has_one_more_slot_than_bounds(self):
        histogram = Histogram(bounds=(1.0, 2.0, 3.0))
        assert len(histogram.counts) == 4

    def test_boundaries_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_sum_count_mean(self):
        histogram = Histogram(bounds=(10.0,))
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(6.0)


class TestRegistry:
    def test_get_or_create_same_series(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", proto="ssh")
        second = registry.counter("hits_total", proto="ssh")
        assert first is second

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        ssh = registry.counter("hits_total", proto="ssh")
        coap = registry.counter("hits_total", proto="coap")
        assert ssh is not coap

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x", buckets=(1.0,))

    def test_histogram_bounds_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("lat", buckets=(1.0, 3.0))

    def test_find_matches_label_subsets(self):
        registry = MetricsRegistry()
        registry.counter("n", engine="e/shard0", proto="ssh").inc(3)
        registry.counter("n", engine="e/shard1", proto="ssh").inc(5)
        matches = registry.find("n", proto="ssh")
        assert len(matches) == 2
        only = registry.find("n", engine="e/shard1")
        assert len(only) == 1 and only[0][1].value == 5

    def test_value_lookup(self):
        registry = MetricsRegistry()
        registry.counter("n", a="1").inc(7)
        assert registry.value("n", a="1") == 7
        assert registry.value("n", a="2") is None

    def test_snapshot_is_deterministic_and_sorted(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("zeta").inc()
            registry.counter("alpha", b="2").inc(2)
            registry.counter("alpha", b="1").inc(1)
            registry.histogram("lat", buckets=(1.0,)).observe(0.5)
            return registry.snapshot()

        first, second = build(), build()
        assert first == second
        assert first["gauges"] == []
        names = [entry["name"] for entry in first["counters"]]
        assert names == sorted(names)


class TestRegistryScoping:
    def test_use_registry_scopes_and_restores(self):
        outer = current_registry()
        with use_registry() as registry:
            assert current_registry() is registry
            assert registry is not outer
        assert current_registry() is outer

    def test_nested_scopes(self):
        with use_registry() as a:
            with use_registry() as b:
                assert current_registry() is b
            assert current_registry() is a
