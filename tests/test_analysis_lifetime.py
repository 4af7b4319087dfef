"""Tests for the address-lifetime analysis."""

import pytest

from repro.analysis import lifetime
from repro.core.collector import CollectedDataset
from repro.net.clock import DAY


def _dataset(spans_days):
    """Build a dataset with one address per requested span (days)."""
    dataset = CollectedDataset()
    for index, span in enumerate(spans_days):
        address = 0x20010DB8 << 96 | index
        dataset.record(address, 0.0, "X")
        if span > 0:
            dataset.record(address, span * DAY, "X")
    return dataset


class TestLifetimeReport:
    def test_spans_computed(self):
        report = lifetime.analyze(_dataset([0, 0, 2, 10]))
        assert report.total_addresses == 4
        assert report.single_sighting == 2
        assert report.single_sighting_share == 0.5
        assert report.median_span_days == 1.0  # median of 0,0,2,10
        assert report.max_span == 10 * DAY

    def test_long_lived_share(self):
        report = lifetime.analyze(_dataset([0, 3, 8, 20]))
        assert report.long_lived_share == pytest.approx(0.5)

    def test_empty(self):
        report = lifetime.analyze(CollectedDataset())
        assert report.total_addresses == 0
        assert report.single_sighting_share == 0.0


class TestSurvivalCurve:
    def test_monotone_decreasing(self):
        dataset = _dataset([0, 1, 2, 5, 10, 30])
        curve = lifetime.survival_curve(dataset)
        values = [curve[day] for day in sorted(curve)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_known_values(self, monkeypatch):
        monkeypatch.setattr(lifetime, "DAY_POINTS", (1, 7))
        curve = lifetime.survival_curve(_dataset([0, 2, 10]))
        assert curve[1] == pytest.approx(2 / 3)
        assert curve[7] == pytest.approx(1 / 3)

    def test_empty(self):
        assert lifetime.survival_curve(CollectedDataset()) == \
            {1: 0.0, 3: 0.0, 7: 0.0, 14: 0.0, 21: 0.0}


class TestTurnover:
    def test_static_population_zero(self):
        dataset = CollectedDataset()
        for index in range(10):
            dataset.record(index, 100.0, "X")  # all on day 0
        assert lifetime.turnover_rate(dataset) == 0.0

    def test_fully_fresh_population(self):
        dataset = CollectedDataset()
        counter = 0
        for day in range(4):
            for _ in range(5):
                dataset.record(counter, day * DAY + 1, "X")
                counter += 1
        rate = lifetime.turnover_rate(dataset)
        assert rate == pytest.approx(5 / 20)


class TestOnExperiment:
    def test_ntp_population_is_ephemeral(self, experiment):
        """Most collected addresses are short-lived — the reason the
        paper's pipeline scans in real time."""
        report = lifetime.analyze(experiment.ntp_dataset)
        assert report.total_addresses > 0
        assert report.single_sighting_share > 0.4
        curve = lifetime.survival_curve(experiment.ntp_dataset)
        assert curve[14] < curve[1]
        assert lifetime.turnover_rate(experiment.ntp_dataset) > 0.01
