"""Tests for the consolidated study report renderer."""

import pytest

from repro.analysis.bundle import run_analysis
from repro.report.study import (
    render_appendices,
    render_figure1,
    render_full_report,
    render_security,
    render_table1,
    render_table2,
    render_table3,
)


@pytest.fixture(scope="module")
def analysis(experiment):
    """The experiment's analysis bundle, key reuse included, as
    ``api.study`` builds it."""
    return run_analysis(experiment.ntp_scan, experiment.hitlist_scan,
                        asdb=experiment.world.asdb)


class TestSections:
    def test_table1_contains_datasets(self, experiment):
        text = render_table1(experiment.table1())
        for label in ("ntp", "rl", "hitlist-full", "hitlist-public"):
            assert label in text
        assert "ntp ∩ hitlist-full" in text

    def test_figure1_contains_classes(self, experiment):
        text = render_figure1(experiment)
        assert "high-entropy" in text
        assert "Cable/DSL/ISP" in text

    def test_table2_all_protocols(self, experiment):
        text = render_table2(experiment)
        for protocol in ("http", "https", "ssh", "mqtt", "amqp", "coap"):
            assert protocol in text
        assert "hit rates" in text

    def test_table3_devices(self, analysis):
        text = render_table3(analysis)
        assert "FRITZ!Box" in text
        assert "Raspbian" in text
        assert "castdevice" in text
        assert "missed or underrepresented" in text

    def test_security_headline(self, analysis):
        text = render_security(analysis)
        assert "secure share" in text
        assert "MQTT" in text

    def test_appendices(self, experiment, analysis):
        text = render_appendices(experiment, analysis)
        assert "AVM" in text
        assert "India" in text
        assert "key reuse" in text
        assert "address lifetimes" in text


class TestFullReport:
    def test_contains_every_section(self, experiment, analysis):
        text = render_full_report(experiment, experiment.table1(), analysis)
        for heading in ("Table 1", "Figure 1", "Table 2", "Table 3",
                        "Figures 2-3", "Appendices"):
            assert heading in text

    def test_deterministic(self, experiment, analysis):
        table1 = experiment.table1()
        assert render_full_report(experiment, table1, analysis) == \
            render_full_report(experiment, table1, analysis)
