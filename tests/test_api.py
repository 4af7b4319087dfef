"""Tests for the repro.api facade and RunReport round trips."""

import json

import pytest

from repro import api
from repro.cli import main
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig, run_experiment
from repro.io import save_run_report
from repro.obs import RUN_REPORT_VERSION, RunReport
from repro.world.population import WorldConfig
from tests.io_reference import load_run_report, report_from_document

SCALE, SEED = 0.05, 20240720


def _study_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        world=WorldConfig(seed=SEED, scale=SCALE),
        campaign=CampaignConfig(wire_fraction=0.0),
        include_rl=False,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    """The bugfix: validation lives on the config, not the CLI handler."""

    def test_rejects_unknown_protocols(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ExperimentConfig(protocols=("ssh", "gopher"))

    def test_rejects_empty_protocol_tuple(self):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentConfig(protocols=())

    def test_accepts_valid_values(self):
        config = ExperimentConfig(protocols=("ssh", "coap"))
        assert config.protocols == ("ssh", "coap")

    def test_cli_surfaces_config_errors(self, capsys):
        assert main(["study", "--scale", "0.05",
                     "--protocols", "ssh,nosuch"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_telescope_config_validation(self):
        with pytest.raises(ValueError, match="sweep_days"):
            api.TelescopeConfig(sweep_days=0)


class TestApiCliRoundTrip:
    """api result == CLI JSON, per subcommand."""

    def _cli_doc(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_world(self, capsys):
        result = api.build_world(WorldConfig(seed=SEED, scale=SCALE))
        doc = self._cli_doc(capsys, ["world", "--scale", str(SCALE),
                                     "--seed", str(SEED),
                                     "--format", "json"])
        assert doc == result.report.as_document()

    def test_collect(self, capsys):
        result = api.collect(api.CollectConfig(
            world=WorldConfig(seed=SEED, scale=SCALE),
            campaign=CampaignConfig(days=2, wire_fraction=0.0)))
        doc = self._cli_doc(capsys, ["collect", "--scale", str(SCALE),
                                     "--seed", str(SEED), "--days", "2",
                                     "--wire", "0", "--format", "json"])
        assert doc == result.report.as_document()

    def test_study(self, capsys):
        result = api.study(_study_config())
        doc = self._cli_doc(capsys, ["study", "--scale", str(SCALE),
                                     "--seed", str(SEED), "--no-rl",
                                     "--wire", "0", "--format", "json"])
        assert doc == result.report.as_document()

    def test_telescope(self, capsys):
        result = api.telescope(api.TelescopeConfig(
            world=WorldConfig(seed=SEED, scale=SCALE), sweep_days=2))
        doc = self._cli_doc(capsys, ["telescope", "--scale", str(SCALE),
                                     "--seed", str(SEED), "--days", "2",
                                     "--format", "json"])
        assert doc == result.report.as_document()


class TestMetricsDeterminism:
    def test_same_seed_identical_run_report(self):
        first = api.study(_study_config())
        second = api.study(_study_config())
        assert first.report.as_document() == second.report.as_document()

    def test_run_experiment_snapshots_identical(self):
        first = run_experiment(_study_config())
        second = run_experiment(_study_config())
        assert first.metrics is not second.metrics
        assert first.metrics.snapshot() == second.metrics.snapshot()

    def test_diff_metrics_flags_moved_series(self):
        base = api.study(_study_config()).report
        subset = api.study(_study_config(protocols=("ssh", "coap"))).report
        assert base.diff_metrics(base) == {}
        deltas = subset.diff_metrics(base)
        # A narrower probe profile drops the other protocols' series.
        assert any("protocol=http" in series for series in deltas)


class TestRunReportPersistence:
    def test_save_load_round_trip(self, tmp_path):
        report = api.study(_study_config()).report
        path = tmp_path / "report.jsonl"
        save_run_report(report, path)
        loaded = load_run_report(path)
        assert loaded.as_document() == report.as_document()

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            report_from_document({"command": "x", "version": 99})

    def test_version_constant_stamped(self):
        report = api.build_world(WorldConfig(seed=1, scale=0.02)).report
        assert report.version == RUN_REPORT_VERSION


class TestApiResults:
    def test_study_result_carries_experiment(self):
        result = api.study(_study_config())
        assert len(result.experiment.ntp_dataset) > 0
        assert result.report.command == "study"
        assert result.report.tables["table2"]

    def test_study_metrics_nonzero(self):
        """Stage, scheduler and per-protocol probe series are populated."""
        metrics = api.study(_study_config()).report.metrics
        values = {(e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                  for e in metrics["counters"]}
        assert values[("stage_received_total",
                       (("stage", "realtime-scan"),))] > 0
        assert values[("scheduler_admitted_total", (("engine", "ntp"),))] > 0
        assert values[("probe_attempts_total",
                       (("engine", "ntp"), ("protocol", "ssh")))] > 0

    def test_analyze_round_trip(self, tmp_path, capsys):
        from repro.io import save_results

        experiment = api.study(_study_config()).experiment
        ntp = tmp_path / "ntp.jsonl"
        hitlist = tmp_path / "hitlist.jsonl"
        save_results(experiment.ntp_scan, ntp)
        save_results(experiment.hitlist_scan, hitlist)
        result = api.analyze(api.AnalyzeConfig(ntp_path=str(ntp),
                                               hitlist_path=str(hitlist)))
        assert main(["analyze", "--ntp", str(ntp), "--hitlist",
                     str(hitlist), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == result.report.as_document()
        assert result.report.tables["security"]["ntp"]["total"] > 0
