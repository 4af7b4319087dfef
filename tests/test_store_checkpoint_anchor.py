"""Checkpoints are replay anchors, and older stores keep working.

Recovery, verify and compaction read a checkpoint's ``seq`` and
``chain``; the windowed queries anchor on its state's ``clock`` and
``targets``.  Nothing reads anything else, so a checkpoint's state holds
exactly those two values, cut at the seq of the progress mark whose
clock it carries.

Stores written before checkpoints shrank to their anchor carry larger
states (the phase and day, the campaign counters, the daemon's drift,
every live cool-down entry and the whole metrics snapshot) and record
more config fields in ``meta.json``.  Both must keep serving, verifying
and resuming.
"""

import json

import pytest

from repro import api
from repro.io.jsonl import to_canonical_json
from repro.net.clock import DAY
from repro.service import WindowedStudyReader
from repro.store import RunStore, fault_injection
from repro.store.checkpoint import (
    Checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.store.wal import WalReader

from tests.service_reference import series
from tests.test_golden_bytes import (
    CAMPAIGN_CRASH_SEQ,
    SimulatedCrash,
    _campaign_config,
    _config,
)

#: The sections an older checkpoint's state carried beside its anchor,
#: in their recorded shapes.
LEGACY_SECTIONS = {
    "phase": "service",
    "day": 1,
    "campaign": {"addresses": 323, "days_run": 1, "fast_queries": 23314,
                 "per_server_requests": {"Germany": 459, "India": 14843},
                 "requests": 23314, "wire_queries": 0},
    "drift": {"devices_retired": 0, "devices_spawned": 0,
              "hitlist_sweeps": 0, "pool_joined": 0, "pool_left": 0},
    "cooldowns": {"hitlist": {},
                  "ntp": {"2001:db8:1::1": 3600.0, "2001:db8:2::2": 7200.0}},
    "metrics": {"counters": [{"labels": {"event": "AddressSighted"},
                              "name": "bus_events_total", "value": 323}],
                "gauges": [], "histograms": []},
}

#: Config fields older stores record in ``meta.json``, at the values
#: they always held.
LEGACY_WORLD_FIELDS = {
    "premises_base": 24.0, "cdn_fronts": 2600, "aliased_64s": 30,
    "web_per_hosting_as": 60, "ssh_per_hosting_as": 55,
    "mqtt_per_hosting_as": 8, "amqp_per_hosting_as": 4,
    "freebsd_per_research_as": 8, "static_prefix_rate": 0.45,
    "rotation_rate": 0.35, "consumer_dns_rate": 0.02,
    "managed_latest_rate": 0.55, "unmanaged_latest_rate": 0.15,
    "managed_mqtt_auth_rate": 0.82, "unmanaged_mqtt_auth_rate": 0.34,
    "amqp_auth_rate": 0.93, "ssh_reuse_rate": 0.35, "ssh_pool_size": 12,
    "unmanaged_ssh_reuse_rate": 0.55, "unmanaged_ssh_pool_size": 4,
}
LEGACY_HITLIST_FIELDS = {
    "dns_inclusion_rate": 0.96, "tga_per_seed": 5,
    "tga_structured_share": 0.7, "routers_per_as": 25,
    "ddns_staleness": 0.08,
}
LEGACY_CAMPAIGN_FIELDS = {
    "background_netspeed": 1000, "resolutions_per_day": 4,
    "background_dead_rate": 0.12,
}
LEGACY_SERVICE_FIELDS = {
    "protocols": None, "drift_spawn_rate": 0.02, "drift_retire_rate": 0.01,
    "pool_join_rate": 0.25, "pool_leave_rate": 0.15, "window": 7,
    "step": 7, "serve_cache_frames": 32, "fsync_every": 256,
}


def _crash_campaign(run_dir):
    """The golden 3-day campaign, crashed mid-sweep on day 2."""
    def hook(point, seq, acked):
        if point == "post-append" and seq == CAMPAIGN_CRASH_SEQ:
            raise SimulatedCrash()

    with fault_injection(hook):
        with pytest.raises(SimulatedCrash):
            api.run_campaign(_campaign_config(run_dir))


def _golden_store(kind, run_dir):
    if kind == "study":
        api.study(_config(store_dir=str(run_dir), checkpoint_days=2))
    elif kind == "campaign":
        api.run_campaign(_campaign_config(run_dir))
    else:
        _crash_campaign(run_dir)
        api.resume_campaign(str(run_dir))


def _wal_bytes(run_dir):
    return {path.name: path.read_bytes()
            for path in sorted((run_dir / "wal").iterdir())}


def _window_documents(run_dir):
    reader = WindowedStudyReader(RunStore.open(run_dir))
    documents = []
    for window_days, step_days in ((1, 1), (2, 1), (3, 1)):
        documents.extend(
            to_canonical_json(frame.document) for frame in series(
                reader, since=0.0, window=window_days * DAY,
                step=step_days * DAY))
    anchors = [(anchor.seq, anchor.chain, anchor.clock, anchor.targets)
               for anchor in reader.anchors()]
    return documents, anchors


@pytest.mark.parametrize("kind", ["study", "campaign", "resumed"])
def test_golden_checkpoints_hold_only_the_replay_anchor(tmp_path, kind):
    run_dir = tmp_path / kind
    _golden_store(kind, run_dir)
    marks = {record["seq"]: record
             for record in WalReader(run_dir / "wal").records()
             if record["t"] == "mark"}
    paths = list_checkpoints(run_dir / "checkpoints")
    assert paths
    for path in paths:
        checkpoint = load_checkpoint(path)
        assert set(checkpoint.state) == {"clock", "targets"}, path.name
        assert checkpoint.seq in marks, path.name
        assert checkpoint.state["clock"] == marks[checkpoint.seq]["clock"]


def test_checkpoints_with_legacy_sections_serve_and_verify(tmp_path):
    run_dir = tmp_path / "campaign"
    api.run_campaign(_campaign_config(run_dir))
    before = _window_documents(run_dir)
    assert len(before[1]) >= 3  # the day-1 and day-2 anchors are used
    for path in list_checkpoints(run_dir / "checkpoints"):
        checkpoint = load_checkpoint(path)
        save_checkpoint(run_dir / "checkpoints", Checkpoint(
            seq=checkpoint.seq, chain=checkpoint.chain,
            state=dict(LEGACY_SECTIONS, clock=checkpoint.state["clock"],
                       targets=checkpoint.state["targets"])))
        assert set(load_checkpoint(path).state) == {
            "clock", "targets", *LEGACY_SECTIONS}
    assert _window_documents(run_dir) == before
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"] and verify["problems"] == []


def test_stored_config_with_removed_fields_resumes_to_the_same_wal(tmp_path):
    golden_dir = tmp_path / "golden"
    api.run_campaign(_campaign_config(golden_dir))
    run_dir = tmp_path / "crashed"
    _crash_campaign(run_dir)
    meta_path = run_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    config = meta["config"]
    config.update(LEGACY_SERVICE_FIELDS)
    config["world"].update(LEGACY_WORLD_FIELDS)
    config["hitlist"].update(LEGACY_HITLIST_FIELDS)
    config["campaign"].update(LEGACY_CAMPAIGN_FIELDS)
    meta_path.write_text(json.dumps(meta))
    api.resume_campaign(str(run_dir))
    assert _wal_bytes(run_dir) == _wal_bytes(golden_dir)
