"""Campaign-daemon tests: drift, resume-after-crash, store hygiene.

The crash/resume golden reuses the store suite's fault-injection
harness: kill the daemon mid-campaign with a :class:`BaseException`
(so no ``except Exception`` swallows it), resume from nothing but the
run directory, and demand the *windowed series* — the subsystem's
user-facing output — comes out byte-identical to the uninterrupted
campaign's.
"""

import json
from dataclasses import asdict

import pytest

from repro import api
from repro.io.jsonl import to_canonical_json
from repro.net.clock import DAY
from repro.service import CampaignDaemon, WindowedStudyReader
from repro.store import RunStore, fault_injection
from repro.store.wal import WalReader

from tests.conftest import patch_stored_config, service_config, store_bytes


class SimulatedCrash(BaseException):
    pass


def series_bytes(run_dir, *, window_days=4, step_days=2):
    reader = WindowedStudyReader(RunStore.open(run_dir))
    frames = reader.series(since=0.0, window=window_days * DAY,
                           step=step_days * DAY)
    return [to_canonical_json(frame.document) for frame in frames]


def test_campaign_store_verifies_clean(service_run):
    result, run_dir = service_run
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"], verify["problems"]
    assert verify["cooldown_violations"] == 0
    assert set(verify["records_by_kind"]) == {"sighting", "admit",
                                              "grab", "mark"}
    days = result.daemon.config.campaign_days
    # One checkpoint per checkpoint_days plus the final close() cut.
    assert (RunStore.open(run_dir).inspect()["checkpoints"]
            >= days // 3)


def test_world_evolves_under_the_campaign(service_run):
    result, _ = service_run
    drift = result.report.tables["drift"]
    assert drift["devices_spawned"] > 0
    assert drift["devices_retired"] > 0
    assert drift["hitlist_sweeps"] == (
        result.daemon.config.campaign_days // 4)
    targets = result.report.tables["campaign"]["targets"]
    assert targets["hitlist"] > 0 and targets["ntp"] > 0


def test_hitlist_denominator_counts_every_sweep(service_run):
    """The daemon keeps the sweeps' cumulative targets as a count: its
    tables and final mark carry every target the hitlist engine was
    fed, across all sweeps."""
    result, run_dir = service_run
    assert result.report.tables["drift"]["hitlist_sweeps"] >= 2
    counters = result.report.counter_values()
    fed = (counters["scheduler_admitted_total{engine=hitlist}"]
           + counters["scheduler_cooldown_hits_total{engine=hitlist}"])
    assert result.report.tables["campaign"]["targets"]["hitlist"] == fed
    marks = [record for record in WalReader(run_dir / "wal").records()
             if record["t"] == "mark"]
    assert marks[-1]["targets"]["hitlist"] == fed


def test_tick_past_horizon_raises(service_run):
    result, _ = service_run
    with pytest.raises(RuntimeError, match="campaign complete"):
        result.daemon.tick()


def test_crashed_campaign_resumes_to_identical_series(tmp_path,
                                                      service_run):
    golden_result, golden_dir = service_run
    run_dir = tmp_path / "crashed"
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 30_000:  # mid-campaign, past a checkpoint
                raise SimulatedCrash()

    with fault_injection(hook):
        with pytest.raises(SimulatedCrash):
            api.run_campaign(service_config(run_dir))

    resumed = api.resume_campaign(str(run_dir))

    # Same campaign tables (the store path is the only allowed delta).
    golden_tables = json.loads(json.dumps(golden_result.report.tables))
    resumed_tables = json.loads(json.dumps(resumed.report.tables))
    assert (golden_tables["store"].pop("run_dir")
            != resumed_tables["store"].pop("run_dir"))
    assert resumed_tables == golden_tables

    # Same WAL, bit for bit at the record level.
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"], verify["problems"]
    assert verify["cooldown_violations"] == 0
    assert verify["last_seq"] == RunStore.open(golden_dir).verify()[
        "last_seq"]

    # And the windowed series — the service's actual product — is
    # byte-identical to the uninterrupted campaign's.
    assert series_bytes(run_dir) == series_bytes(golden_dir)


def test_resume_guards_point_at_the_right_entry(tmp_path, service_run):
    _, service_dir = service_run
    with pytest.raises(ValueError, match="resume_campaign"):
        api.resume(str(service_dir))

    from repro.core.pipeline import ExperimentConfig

    batch_dir = tmp_path / "batch"
    store = RunStore.create(
        batch_dir, config=json.loads(json.dumps(asdict(ExperimentConfig()))),
        cooldown_ttl=0.0)
    store.new_writer().close()
    with pytest.raises(ValueError, match="api.resume"):
        CampaignDaemon.resume(str(batch_dir))


def test_older_store_configs_resume_or_are_refused(tmp_path):
    """Keys of removed settings are ignored: a campaign store recording
    worker processes and one engine shard resumes to the uninterrupted
    campaign, while one recording four shards is refused before
    anything is replayed or appended."""
    import shutil

    def config(name):
        return service_config(tmp_path / name, campaign_days=3,
                              hitlist_days=0, checkpoint_days=1)

    golden = api.run_campaign(config("golden"))
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 4000:  # day 2, past the first checkpoint
                raise SimulatedCrash()

    with fault_injection(hook):
        with pytest.raises(SimulatedCrash):
            api.run_campaign(config("crashed"))
    run_dir = tmp_path / "crashed"
    sharded_dir = tmp_path / "sharded"
    shutil.copytree(run_dir, sharded_dir)

    patch_stored_config(sharded_dir, scan_shards=4)
    before = store_bytes(sharded_dir)
    with pytest.raises(ValueError, match="scan_shards=4"):
        api.resume_campaign(str(sharded_dir))
    assert store_bytes(sharded_dir) == before

    patch_stored_config(run_dir, parallel_workers=2, scan_shards=1)
    resumed = api.resume_campaign(str(run_dir))
    golden_tables = json.loads(json.dumps(golden.report.tables))
    resumed_tables = json.loads(json.dumps(resumed.report.tables))
    golden_tables["store"].pop("run_dir")
    resumed_tables["store"].pop("run_dir")
    assert resumed_tables == golden_tables
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"], verify["problems"]
    assert verify["last_seq"] == RunStore.open(
        tmp_path / "golden").verify()["last_seq"]
