"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import RUN_REPORT_VERSION


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["world"])
        assert args.scale == 0.2
        assert args.seed == 20240720

    def test_study_flags(self):
        args = build_parser().parse_args(
            ["study", "--scale", "0.1", "--no-rl"])
        assert args.scale == 0.1
        assert args.no_rl is True


class TestCommands:
    def test_world(self, capsys):
        assert main(["world", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "World composition" in out
        assert "fritzbox" in out
        assert "premises:" in out

    def test_collect(self, capsys):
        assert main(["collect", "--scale", "0.05", "--days", "2",
                     "--wire", "0"]) == 0
        out = capsys.readouterr().out
        assert "Collected" in out
        assert "India" in out

    def test_telescope(self, capsys):
        assert main(["telescope", "--scale", "0.05", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "Actors detected" in out
        assert "covert" in out
        assert "research" in out

    def test_study(self, capsys):
        assert main(["study", "--scale", "0.05", "--no-rl",
                     "--wire", "0"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "secure share" in out
        assert "hit rates" in out

    def test_study_full_report_is_the_library_report(self, capsys):
        from repro import api
        from repro.core.pipeline import ExperimentConfig
        from repro.report.study import render_full_report
        from repro.world.population import WorldConfig

        assert main(["study", "--scale", "0.05", "--no-rl",
                     "--full-report"]) == 0
        out = capsys.readouterr().out
        study = api.study(ExperimentConfig(
            world=WorldConfig(seed=20240720, scale=0.05), include_rl=False))
        assert out == render_full_report(
            study.experiment, study.table1, study.analysis) + "\n"

    def test_determinism(self, capsys):
        main(["world", "--scale", "0.05", "--seed", "7"])
        first = capsys.readouterr().out
        main(["world", "--scale", "0.05", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second


class TestJsonFormat:
    """--format json golden schema: every subcommand emits one stable
    RunReport document."""

    SCHEMA_KEYS = {"command", "version", "config", "metrics", "tables"}

    def _run_json(self, capsys, argv):
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == self.SCHEMA_KEYS
        assert doc["version"] == RUN_REPORT_VERSION
        assert set(doc["metrics"]) == {"counters", "gauges", "histograms"}
        return doc

    def test_world_json(self, capsys):
        doc = self._run_json(capsys, ["world", "--scale", "0.05",
                                      "--format", "json"])
        assert doc["command"] == "world"
        assert doc["config"]["scale"] == 0.05
        assert doc["tables"]["summary"]["premises"] > 0
        types = {row["type"] for row in doc["tables"]["composition"]}
        assert "fritzbox" in types

    def test_collect_json(self, capsys):
        doc = self._run_json(capsys, ["collect", "--scale", "0.05",
                                      "--days", "2", "--wire", "0",
                                      "--format", "json"])
        assert doc["command"] == "collect"
        assert doc["tables"]["totals"]["addresses"] > 0
        counters = {c["name"] for c in doc["metrics"]["counters"]}
        assert "campaign_days_total" in counters
        assert "bus_events_total" in counters

    def test_study_json_has_runtime_metrics(self, capsys):
        doc = self._run_json(capsys, ["study", "--scale", "0.05",
                                      "--no-rl", "--wire", "0",
                                      "--format", "json"])
        assert doc["command"] == "study"
        nonzero = {c["name"] for c in doc["metrics"]["counters"]
                   if c["value"] > 0}
        # The acceptance bar: stage, scheduler and per-protocol probe
        # series must all be populated.
        assert "stage_received_total" in nonzero
        assert "scheduler_admitted_total" in nonzero
        assert "probe_attempts_total" in nonzero
        assert "probe_success_total" in nonzero
        protocols = {c["labels"]["protocol"]
                     for c in doc["metrics"]["counters"]
                     if c["name"] == "probe_attempts_total"}
        assert {"http", "https", "ssh", "coap"} <= protocols
        assert doc["tables"]["table2"]

    def test_telescope_json(self, capsys):
        doc = self._run_json(capsys, ["telescope", "--scale", "0.05",
                                      "--days", "2", "--format", "json"])
        assert doc["command"] == "telescope"
        assert doc["tables"]["telescope"]["baits"] > 0
        assert isinstance(doc["tables"]["actors"], list)

    def test_json_deterministic(self, capsys):
        argv = ["world", "--scale", "0.05", "--seed", "7",
                "--format", "json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert first == capsys.readouterr().out


class TestSaveLoad:
    def test_collect_out(self, capsys, tmp_path):
        out = tmp_path / "dataset.jsonl"
        assert main(["collect", "--scale", "0.05", "--days", "1",
                     "--wire", "0", "--out", str(out)]) == 0
        assert out.exists()
        from repro.io import load_dataset
        assert len(load_dataset(out)) > 0

    def test_study_out_dir_then_analyze(self, capsys, tmp_path):
        out = tmp_path / "artefacts"
        assert main(["study", "--scale", "0.05", "--no-rl", "--wire", "0",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--ntp", str(out / "ntp_scan.jsonl"),
                     "--hitlist", str(out / "hitlist_scan.jsonl")]) == 0
        text = capsys.readouterr().out
        assert "Device types (from saved results)" in text
        assert "secure share" in text

    def test_study_out_dir_writes_run_report(self, capsys, tmp_path):
        out = tmp_path / "artefacts"
        assert main(["study", "--scale", "0.05", "--no-rl", "--wire", "0",
                     "--out-dir", str(out)]) == 0
        from repro.io import load_run_report

        report = load_run_report(out / "run_report.jsonl")
        assert report.command == "study"
        assert report.tables["table1"]


class TestOutOfRangeSettings:
    """A world or campaign setting outside its range exits 2 with a
    ``field=value`` message before anything runs."""

    @pytest.mark.parametrize("argv,lead", [
        (["world", "--scale", "-1"], "scale=-1.0"),
        (["study", "--scale", "0.02", "--no-rl", "--wire", "5"],
         "wire_fraction=5.0"),
        (["collect", "--scale", "0.02", "--days", "-2", "--wire", "3.5"],
         "days=-2"),
        (["study", "--scale", "0.02", "--no-rl", "--format", "json",
          "--full-report"], "--full-report"),
    ])
    def test_exits_2_naming_the_value(self, capsys, argv, lead):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {lead}:")
        assert captured.out == ""
