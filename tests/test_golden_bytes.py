"""Byte-level goldens for one small study.

``test_golden_determinism`` pins grab *counts*, so it cannot see a
refused grab with the wrong ``port`` or ``protocol``, a shifted
timestamp or a reordered bucket.  These tests pin sha256 digests of a
small study's complete outputs instead:

* the ordered ``grab_to_json`` stream of both scans (NTP-fed and
  hitlist), bucket by bucket in scan order;
* every field of every grab (``repr``, which also covers the fields
  ``grab_to_json`` leaves out, such as a CoAP grab's port);
* the canonical result tables and the deterministic metrics snapshot;
* for a store-backed run, the raw bytes of every WAL segment and
  checkpoint file.

The digests were captured before the study hot path started caching
pool rotations and answering refused probes without dispatch; any
change to what a study computes shows up here.
"""

import hashlib
import json
from pathlib import Path

from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig
from repro.io.jsonl import grab_to_json
from repro.world.population import WorldConfig

GOLDEN_GRABS = (
    "d666280ab15e95452e9b09cc909cd75cc1a9fb7ff36923b17e3ed31d7a2c41a7")
GOLDEN_GRAB_FIELDS = (
    "eed8a632ecf104ea11f3809c9555ea9512304f9a4a88cae1873f35f1361df6a2")
GOLDEN_TABLES = (
    "99fcf40541efdd983fd635c38bb0a371a37b67fd44ad5a3824e8c3b3e9a2b865")
GOLDEN_METRICS = (
    "a2ba9a4ca09e71ec7b82e18510923af91acaafd82c1af00d374dfc5967292b65")
GOLDEN_STORE_METRICS = (
    "342975f0154ad13b20ac10f389d742b464c7d82392bf556667ec1636baa9faf2")
GOLDEN_STORE_FILES = (
    "f5acf71942be2828e8e70088015af52b2eade1d99847c3f40b9a09b151905555")


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

