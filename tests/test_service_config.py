"""ServiceConfig / AnalyzeConfig validation and round-trip contracts.

The service config persists in ``meta.json`` exactly like the batch
``ExperimentConfig``, so the asdict → JSON → ``config_from_document``
loop must be the identity — a resumed daemon rebuilds its
configuration from nothing but the run directory.
"""

import json
from dataclasses import asdict

import pytest

from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import config_from_document
from repro.service import ServiceConfig, is_service_document


def make_config(**overrides):
    defaults = dict(store_dir="/tmp/example-run")
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# -- validation (house style: errors lead with field=value) -----------------

def test_store_dir_is_required():
    with pytest.raises(ValueError, match="store_dir=None"):
        ServiceConfig()


@pytest.mark.parametrize("field,value", [
    ("campaign_days", 0),
    ("checkpoint_days", 0),
    ("hitlist_days", -1),
    ("segment_max_records", 0),
])
def test_rejects_out_of_range_knobs(field, value):
    with pytest.raises(ValueError, match=f"{field}={value}"):
        make_config(**{field: value})


def test_hitlist_days_zero_disables_sweeps():
    assert make_config(hitlist_days=0).hitlist_days == 0


# -- document round trip ----------------------------------------------------

def test_round_trips_through_json_document():
    config = make_config(
        campaign=CampaignConfig(label="svc", wire_fraction=0.0,
                                deployment=("DE", "US")),
        campaign_days=14, checkpoint_days=2, hitlist_days=3,
        drift_seed=5, segment_max_records=64)
    document = json.loads(json.dumps(asdict(config)))
    rebuilt = config_from_document(ServiceConfig, document)
    assert rebuilt == config
    # Moved run directories resume in place via the override.
    moved = config_from_document(ServiceConfig, document,
                                 store_dir="/elsewhere")
    assert moved.store_dir == "/elsewhere"


def test_document_kind_discrimination():
    from repro.core.pipeline import ExperimentConfig

    service_doc = json.loads(json.dumps(asdict(make_config())))
    batch_doc = json.loads(json.dumps(asdict(ExperimentConfig())))
    assert is_service_document(service_doc)
    assert not is_service_document(batch_doc)


# -- AnalyzeConfig windowed knobs -------------------------------------------

def test_analyze_window_requires_run_dir():
    with pytest.raises(ValueError, match="window=7"):
        api.AnalyzeConfig(ntp_path="a.jsonl", hitlist_path="b.jsonl",
                          window=7)


@pytest.mark.parametrize("kwargs,lead", [
    (dict(since=1.0), "since=1.0"),
    (dict(step=2.0), "step=2.0"),
])
def test_analyze_since_step_require_window(kwargs, lead):
    with pytest.raises(ValueError, match=lead):
        api.AnalyzeConfig(run_dir="/tmp/run", **kwargs)


@pytest.mark.parametrize("kwargs,lead", [
    (dict(window=0), "window=0"),
    (dict(window=7, since=-1), "since=-1"),
    (dict(window=7, step=0), "step=0"),
])
def test_analyze_rejects_bad_spans(kwargs, lead):
    with pytest.raises(ValueError, match=lead):
        api.AnalyzeConfig(run_dir="/tmp/run", **kwargs)


def test_analyze_windowed_config_round_trips():
    config = api.AnalyzeConfig(run_dir="/tmp/run", since=2.0, window=7.0,
                               step=3.5)
    document = json.loads(json.dumps(asdict(config)))
    assert api.AnalyzeConfig(**document) == config
