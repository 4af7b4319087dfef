"""Byte-level goldens for small studies and a small campaign.

``test_golden_determinism`` pins grab *counts*, so it cannot see a
grab with the wrong ``port`` or ``protocol``, a shifted timestamp or a
reordered bucket.  These tests pin sha256 digests of a
small study's complete outputs instead:

* the ordered ``grab_to_json`` stream of both scans (NTP-fed and
  hitlist), bucket by bucket in scan order (answered grabs only: a
  result set keeps no refused grab);
* every field of every grab (``repr``, which also covers the fields
  ``grab_to_json`` leaves out, such as a CoAP grab's port);
* the canonical result tables and the deterministic metrics snapshot;
* the text of the full study report (``repro study --full-report``);
* for a store-backed run, the raw bytes of every WAL segment and
  checkpoint file;
* the tables of ``api.amplification``, the tables and metrics of a
  small ``api.ecosystem`` run, and the tables and metrics of
  ``api.analyze`` over the store-backed study's run directory;
* the raw WAL and checkpoint bytes of a short ``api.run_campaign``
  (three days with a hitlist sweep on day 2), once uninterrupted and
  once crashed mid-sweep and finished by ``api.resume_campaign``.

The study digests were captured before the study hot path started
caching pool rotations and answering refused probes without dispatch;
the two grab digests were re-captured from that code's grab stream
with its refused grabs filtered out, when result sets came to hold
answered grabs only; the amplification, ecosystem and analyze digests
before those entry points lost their process-pool and sharded code
paths; the campaign digests before the store rendered refused grabs,
admissions and sightings from per-sink record templates.  The two
study metrics digests and the three store-file digests were
re-captured when the scan engine stopped creating the all-zero
``probe_seconds`` and ``scheduler_wait_seconds`` histograms: each
snapshot then equalled the previous code's with those two series
removed, every WAL segment stayed byte-identical, and each checkpoint
differed only by those series in its embedded metrics and by its
``crc``.  Those five digests were re-captured once more, by the same
procedure, when the staged runtime's intake queue and the store
writer's stage counters went: the study snapshot lost the real-time
stage's queue-depth gauge, and the store-backed snapshot and every
checkpoint lost that gauge, the store writer's and the three
``stage_*_total{stage="store-writer"}`` counters, while every WAL
segment stayed byte-identical.  The two study metrics digests and the
analyze metrics digest were re-captured, by the same procedure, when
the title clusterer lost its distance cache: each snapshot then
equalled the previous code's without its two (zero-valued)
``analysis_cache_hits_total`` series, and every WAL segment and
checkpoint stayed byte-identical.  The three store-file digests were
re-captured when checkpoints shrank to their replay anchor: before any
``src/`` change, every WAL segment and checkpoint of the three stores
was captured at the previous code; at the new code every WAL segment
was byte-identical, and each checkpoint equalled the previous one in
``kind``, ``version``, ``seq`` and ``chain``, with a ``state`` equal to
the previous state's ``clock`` and ``targets`` and a new ``crc``.  Any
change to what these entry points compute shows up here.  The
amplification metrics are left out: their ``engine`` label names the
scan engine.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig
from repro.io.jsonl import grab_to_json, load_results, save_results
from repro.report.study import render_full_report
from repro.store import fault_injection, read_study
from repro.store.wal import WalReader
from repro.world.population import WorldConfig

from tests.conftest import service_config

GOLDEN_GRABS = (
    "9201bb218956d2ed2600f4e6db5be00e1ef2e2998d3c82f89253119695431ac6")
GOLDEN_GRAB_FIELDS = (
    "cd14c4ae9d9004d1938ac1ce23419e670eacac5fe140cd909d756357fce8f6dc")
GOLDEN_TABLES = (
    "99fcf40541efdd983fd635c38bb0a371a37b67fd44ad5a3824e8c3b3e9a2b865")
GOLDEN_METRICS = (
    "073c7070df375fce6f2993fe7720ed146b76620189eaa83bb527acb2aaf36386")
#: sha256 of the full report's text (6,883 characters).
GOLDEN_FULL_REPORT = (
    "358e4a7900c9b0098128ba0430ca7b4c7c4d2c4fed63246ace07869b052e088c")
GOLDEN_STORE_METRICS = (
    "dbce0c9d64428bf54ce2114b89f99dafc5f39d8f50b77074178113dc14db6052")
GOLDEN_STORE_FILES = (
    "05ba374b82b1638296b1a2273e87d8b95b22b65123b178a2b2bacaf8ed087fb0")
GOLDEN_AMPLIFICATION_TABLES = (
    "01cc2e2f429ca298c0a9957b66d6dd368108a82260658c48626d53f27a921354")
GOLDEN_ECOSYSTEM_TABLES = (
    "f63a615736687854220f0cd8bd6f27265bc0728f7159e9392f7cf233b541a432")
GOLDEN_ECOSYSTEM_METRICS = (
    "9bbb5ffdd17f8bda247cc922fb34cdd11a4f7aeff9104e3a2db7bf61e52e1995")
GOLDEN_ANALYZE_TABLES = (
    "01f543d425271dc8ff8b398b2732a8352882203a1de4f4bcca329bced534838f")
GOLDEN_ANALYZE_METRICS = (
    "454bbf559e0c6bf1d23222b50643d87102580dcb30939eb4e48971b727875a0f")
GOLDEN_CAMPAIGN_STORE_FILES = (
    "877fa7143ebce5e62e1379b2d74b1ad19dacbfbeb253a41e15fa02103980da62")
#: The crashed and resumed campaign leaves the uninterrupted one's
#: files byte for byte: its WAL always matched, and its checkpoints no
#: longer carry the metrics snapshot that recovery's counters changed.
GOLDEN_RESUMED_CAMPAIGN_STORE_FILES = GOLDEN_CAMPAIGN_STORE_FILES

#: The record the crashed campaign dies after: a refused grab of the
#: day-2 hitlist sweep.
CAMPAIGN_CRASH_SEQ = 20_004


def _config(**overrides) -> ExperimentConfig:
    defaults = dict(
        world=WorldConfig(seed=20240720, scale=0.05),
        campaign=CampaignConfig(days=5, wire_fraction=0.02),
        rl_days=2, gap_days=1, lead_days=3, final_days=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode()


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        digest.update(b"\n")
    return digest.hexdigest()


def _grabs(study):
    for scan in (study.experiment.ntp_scan, study.experiment.hitlist_scan):
        for protocol in scan.protocols():
            yield from scan.grabs(protocol)


def _digests(study) -> dict:
    return {
        "grabs": _sha256(_canonical(grab_to_json(grab))
                         for grab in _grabs(study)),
        "grab_fields": _sha256(repr(grab).encode()
                               for grab in _grabs(study)),
        "tables": _sha256([_canonical(study.report.tables)]),
        "metrics": _sha256([_canonical(study.report.metrics)]),
    }


def _contents(scan) -> tuple:
    """A result set's denominator and every bucket, grab by grab."""
    return scan.targets_seen, {protocol: scan.grabs(protocol)
                               for protocol in scan.protocols()}


def _report_digests(report) -> dict:
    return {"tables": _sha256([_canonical(report.tables)]),
            "metrics": _sha256([_canonical(report.metrics)])}


def _campaign_config(run_dir: Path):
    return service_config(run_dir, campaign_days=3, hitlist_days=2,
                          checkpoint_days=1)


class SimulatedCrash(BaseException):
    pass


def _store_files(run_dir: Path) -> str:
    """Names and bytes of every WAL segment and checkpoint (meta.json
    holds the run directory's path, so it is left out)."""
    files = sorted(path for sub in ("wal", "checkpoints")
                   for path in (run_dir / sub).iterdir())
    return _sha256(chunk for path in files
                   for chunk in (path.relative_to(run_dir).as_posix()
                                 .encode(), path.read_bytes()))


class TestGoldenBytes:
    def test_study_outputs_match_golden(self):
        assert _digests(api.study(_config())) == {
            "grabs": GOLDEN_GRABS,
            "grab_fields": GOLDEN_GRAB_FIELDS,
            "tables": GOLDEN_TABLES,
            "metrics": GOLDEN_METRICS,
        }

    def test_full_report_matches_golden(self):
        study = api.study(_config())
        text = render_full_report(study.experiment, study.table1,
                                  study.analysis)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GOLDEN_FULL_REPORT

    def test_store_backed_study_matches_golden(self, tmp_path):
        run_dir = tmp_path / "run"
        study = api.study(_config(store_dir=str(run_dir), checkpoint_days=2))
        assert _digests(study) == {
            "grabs": GOLDEN_GRABS,
            "grab_fields": GOLDEN_GRAB_FIELDS,
            "tables": GOLDEN_TABLES,
            "metrics": GOLDEN_STORE_METRICS,
        }
        assert _store_files(run_dir) == GOLDEN_STORE_FILES
        # Live, replayed and reloaded result sets agree grab for grab,
        # and hold the answered grabs only.
        stored = read_study(run_dir)
        for label, live, answered in (
                ("ntp", study.experiment.ntp_scan, 79),
                ("hitlist", study.experiment.hitlist_scan, 458)):
            assert sum(len(grabs) for grabs in _contents(live)[1].values()) \
                == answered
            path = tmp_path / f"{label}.jsonl"
            save_results(live, path)
            assert _contents(stored.scan(label)) == _contents(live)
            assert _contents(load_results(path)) == _contents(live)

    def test_amplification_tables_match_golden(self):
        report = api.amplification().report
        assert _report_digests(report)["tables"] == \
            GOLDEN_AMPLIFICATION_TABLES

    def test_ecosystem_outputs_match_golden(self):
        # The shape of ``repro ecosystem --scale 0.08 --days 3
        # --window-days 2``: rolling windows plus a whole-run fold.
        report = api.ecosystem(api.EcosystemConfig(
            world=WorldConfig(seed=20240720, scale=0.08), sweep_days=3,
            window_days=2.0)).report
        assert _report_digests(report) == {
            "tables": GOLDEN_ECOSYSTEM_TABLES,
            "metrics": GOLDEN_ECOSYSTEM_METRICS,
        }

    def test_analyze_over_golden_store_matches_golden(self, tmp_path):
        run_dir = tmp_path / "run"
        api.study(_config(store_dir=str(run_dir), checkpoint_days=2))
        report = api.analyze(api.AnalyzeConfig(run_dir=str(run_dir))).report
        assert _report_digests(report) == {
            "tables": GOLDEN_ANALYZE_TABLES,
            "metrics": GOLDEN_ANALYZE_METRICS,
        }

    def test_campaign_store_matches_golden(self, tmp_path):
        run_dir = tmp_path / "campaign"
        api.run_campaign(_campaign_config(run_dir))
        assert _store_files(run_dir) == GOLDEN_CAMPAIGN_STORE_FILES

    def test_resumed_campaign_store_matches_golden(self, tmp_path):
        run_dir = tmp_path / "campaign"

        def hook(point, seq, acked):
            if point == "post-append" and seq == CAMPAIGN_CRASH_SEQ:
                raise SimulatedCrash()

        with fault_injection(hook):
            with pytest.raises(SimulatedCrash):
                api.run_campaign(_campaign_config(run_dir))
        *_, last = WalReader(run_dir / "wal").records()
        assert (last["seq"], last["t"], last["label"]) == (
            CAMPAIGN_CRASH_SEQ, "grab", "hitlist")
        api.resume_campaign(str(run_dir))
        assert _store_files(run_dir) == GOLDEN_RESUMED_CAMPAIGN_STORE_FILES
