"""Crash-injection tests: kill the pipeline mid-run, recover, verify.

The store's two hard invariants (ISSUE acceptance criteria):

* **no lost acked records** — every record the WAL acked (fsynced)
  before the crash survives recovery;
* **no cooldown violations** — after recovery + resume, no address was
  ever probed twice by one engine inside its cool-down TTL (checked
  offline from the admission log by ``RunStore.verify``).

Kill points are randomized per seed.  The tier-1 run uses one seed;
CI's ``store-recovery`` job widens the sweep via ``REPRO_CRASH_SEEDS``
(comma-separated), so flaky recovery paths surface there without
slowing every local run.
"""

import os
import random

import pytest

from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.pipeline import ExperimentConfig
from repro.ipv6 import parse
from repro.net.clock import VirtualClock
from repro.net.simnet import Network
from repro.scan.engine import ScanEngine
from repro.scan.result import ScanResults
from repro.store import RunStore, StoreWriter, WalReader, fault_injection
from repro.world.population import WorldConfig
from tests.conftest import patch_stored_config, store_bytes
from tests.net_reference import SimpleSession

CRASH_SEEDS = [int(seed) for seed in
               os.environ.get("REPRO_CRASH_SEEDS", "1").split(",")]


class SimulatedCrash(BaseException):
    """Raised from the fault hook; BaseException so no pipeline code
    can accidentally swallow it the way a broad ``except Exception``
    would — mirroring a real SIGKILL."""


def small_config(store_dir):
    return ExperimentConfig(
        world=WorldConfig(seed=20240720, scale=0.05),
        campaign=CampaignConfig(days=5, wire_fraction=0.0),
        include_rl=False, gap_days=1, lead_days=3, final_days=1,
        checkpoint_days=2, store_dir=str(store_dir),
    )


@pytest.fixture(scope="module")
def clean_study(tmp_path_factory):
    """One uninterrupted store-backed study all crash runs compare to."""
    run_dir = tmp_path_factory.mktemp("store") / "clean"
    study = api.study(small_config(run_dir))
    verify = RunStore.open(run_dir).verify()
    assert verify["ok"] and verify["cooldown_violations"] == 0
    return {"study": study, "records": verify["records"],
            "run_dir": run_dir}


def crash_run(run_dir, hook):
    """Run the study under a fault hook expected to kill it."""
    with fault_injection(hook):
        with pytest.raises(SimulatedCrash):
            api.study(small_config(run_dir))


def assert_recovered(run_dir, clean_study, acked_at_crash):
    """The three post-recovery invariants, shared by every kill point."""
    store = RunStore.open(run_dir)
    recovery = store.recover(repair=True)
    # Invariant 1: nothing the WAL acked is gone.  (Unflushed records
    # MAY survive too — durability is one-directional.)
    assert recovery.last_seq >= acked_at_crash

    resumed = api.resume(str(run_dir))
    clean = clean_study["study"]
    # The resumed study finishes with the clean study's results.
    assert resumed.report.tables == clean.report.tables

    verify = RunStore.open(run_dir).verify()
    assert verify["ok"], verify["problems"]
    # Invariant 2: zero double-probes inside the cooldown TTL, over the
    # *whole* history including the pre-crash prefix.
    assert verify["cooldown_violations"] == 0
    # The resumed log is byte-for-byte the clean run's history.
    assert verify["records"] == clean_study["records"]


@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_random_append_kill_point(tmp_path, clean_study, seed):
    """Crash at a random record append; recover; invariants hold."""
    rng = random.Random(seed)
    kill_at = rng.randrange(1, clean_study["records"])
    run_dir = tmp_path / "crashed"
    state = {"count": 0, "acked": 0}

    def hook(point, seq, acked):
        state["acked"] = acked
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= kill_at:
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    assert_recovered(run_dir, clean_study, state["acked"])


@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_random_fsync_kill_point(tmp_path, clean_study, seed):
    """Crash during an fsync batch: the unflushed tail may tear."""
    rng = random.Random(seed ^ 0xF5)
    kill_at = rng.randrange(1, 20)
    run_dir = tmp_path / "crashed"
    state = {"count": 0, "acked": 0}

    def hook(point, seq, acked):
        state["acked"] = acked
        if point == "pre-fsync":
            state["count"] += 1
            if state["count"] >= kill_at:
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    assert_recovered(run_dir, clean_study, state["acked"])


def test_kill_at_checkpoint(tmp_path, clean_study):
    """Crash at the checkpoint write: the WAL is synced, nothing lost."""
    run_dir = tmp_path / "crashed"
    state = {"acked": 0}

    def hook(point, seq, acked):
        state["acked"] = acked
        if point == "checkpoint":
            raise SimulatedCrash()

    crash_run(run_dir, hook)
    # The checkpoint fault point fires *after* the pre-checkpoint sync,
    # so everything appended so far is acked and must survive.
    assert state["acked"] > 0
    assert_recovered(run_dir, clean_study, state["acked"])


def torn_next_record(clean_dir, seq, seed):
    """The prefix of record ``seq + 1`` a crash mid-write leaves behind.

    The uninterrupted run wrote the same record, so its line is taken
    from there.  This world's text is ASCII, so the record is given a
    non-ASCII server name (``Köln``) as a pool or HTTP server could
    carry; odd seeds cut the line inside one of its multi-byte
    characters, even seeds anywhere.
    """
    from repro.store.wal import WalReader, encode_record

    record = next(record for record
                  in WalReader(clean_dir / "wal").records()
                  if record["seq"] == seq + 1)
    payload = {key: value for key, value in record.items()
               if key not in ("seq", "crc")}
    payload["server"] = "Köln"
    raw = encode_record(seq + 1, payload)[1]
    rng = random.Random(seed)
    if seed % 2:
        # Cutting before a continuation byte splits a character.
        cut = rng.choice([at for at in range(1, len(raw))
                          if raw[at] & 0xC0 == 0x80])
    else:
        cut = rng.randrange(1, len(raw) - 1)
    return raw[:cut]


def test_torn_tail_after_crash_is_repaired(tmp_path, clean_study):
    """A half-written final line (torn write) is truncated on resume;
    each seed of the sweep tears the line at its own offset."""
    from repro.store import list_segments

    for seed in CRASH_SEEDS:
        run_dir = tmp_path / f"crashed-{seed}"
        state = {"count": 0, "acked": 0, "seq": 0}

        def hook(point, seq, acked):
            state["acked"] = acked
            if point == "post-append":
                state["count"] += 1
                state["seq"] = seq
                if state["count"] >= 1000:
                    raise SimulatedCrash()

        crash_run(run_dir, hook)
        # Simulate the torn write the crash left behind.
        store = RunStore.open(run_dir)
        with open(list_segments(store.wal_dir)[-1], "ab") as handle:
            handle.write(torn_next_record(clean_study["run_dir"],
                                          state["seq"], seed))
        recovery = store.recover(repair=False)
        assert recovery.last_seq == state["seq"], seed
        assert recovery.truncated_lines == 1, seed
        assert_recovered(run_dir, clean_study, state["acked"])


def test_resume_of_a_completed_run_is_idempotent(tmp_path, clean_study):
    """Resuming a finished store replays it fully and changes nothing."""
    run_dir = tmp_path / "complete"
    study = api.study(small_config(run_dir))
    before = RunStore.open(run_dir).verify()
    resumed = api.resume(str(run_dir))
    assert resumed.report.tables == study.report.tables
    after = RunStore.open(run_dir).verify()
    assert after["records"] == before["records"]
    assert after["ok"]


def test_resume_after_compaction_verifies_the_chain(tmp_path, clean_study):
    """Compaction deletes the prefix; resume still validates via chain."""
    run_dir = tmp_path / "crashed"
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            # Past the first checkpoint (day 2), so compaction has a
            # horizon to work with.
            if state["count"] >= int(clean_study["records"] * 0.8):
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    store = RunStore.open(run_dir)
    store.recover(repair=True)
    report = store.compact()
    assert report["segments_deleted"] > 0
    resumed = api.resume(str(run_dir))
    assert resumed.report.tables == clean_study["study"].report.tables
    assert RunStore.open(run_dir).verify()["ok"]


def crash_with_stored_config(run_dir, **stored):
    """Crash a study 500 appends in, then patch its stored config the
    way an older version of the program wrote it."""
    state = {"count": 0, "acked": 0}

    def hook(point, seq, acked):
        state["acked"] = acked
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 500:
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    patch_stored_config(run_dir, **stored)
    return state["acked"]


def test_older_single_engine_store_resumes(tmp_path, clean_study):
    """Keys of removed settings are ignored: a store recording worker
    processes and one engine shard resumes to the clean study."""
    run_dir = tmp_path / "crashed"
    acked = crash_with_stored_config(run_dir, parallel_workers=2,
                                     scan_shards=1)
    assert_recovered(run_dir, clean_study, acked)


def test_sharded_store_is_refused_before_replay(tmp_path, clean_study,
                                                capsys):
    """A store written by sharded engines names them ``ntp/shardN`` in
    its WAL, which one engine cannot replay: resuming fails up front
    and leaves the store untouched."""
    from repro.cli import main

    run_dir = tmp_path / "crashed"
    crash_with_stored_config(run_dir, scan_shards=4)
    before = store_bytes(run_dir)
    with pytest.raises(ValueError, match="scan_shards=4"):
        api.resume(str(run_dir))
    assert main(["study", "--resume", str(run_dir)]) == 2
    assert "scan_shards=4" in capsys.readouterr().err
    assert store_bytes(run_dir) == before


def test_divergent_config_is_rejected(tmp_path, clean_study):
    """Resuming under a different config fails loudly, never forks."""
    import json

    run_dir = tmp_path / "crashed"
    state = {"count": 0}

    def hook(point, seq, acked):
        if point == "post-append":
            state["count"] += 1
            if state["count"] >= 500:
                raise SimulatedCrash()

    crash_run(run_dir, hook)
    meta_path = run_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["world"]["seed"] = 999  # not the seed that ran
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="diverged"):
        api.resume(str(run_dir))


#: The mid-group crash scan: six targets, the third with HTTP open (its
#: seven other probes settle after it), the rest with no host (all
#: eight probes settle, one group of eight refused records each).
GROUP_SRC = parse("2001:db8:5c::1")
GROUP_TARGETS = tuple(parse(f"2001:db8:700::{i + 1:x}") for i in range(6))
GROUP_OPEN = GROUP_TARGETS[2]


class _SilentService:
    def accept(self, peer, peer_port):
        return SimpleSession(respond=lambda data: None)


def scan_groups(run_dir, hook=lambda point, seq, acked: None):
    """Scan :data:`GROUP_TARGETS` into the store at ``run_dir``, which
    is created (5-record segments, an fsync every 3 records, so groups
    straddle both) or, if it exists, recovered and resumed; returns the
    recovery (None for a fresh store)."""
    network = Network(VirtualClock(start=1234.5))
    network.add_host(GROUP_OPEN).bind_tcp(80, _SilentService())
    engine = ScanEngine(network, GROUP_SRC, name="ntp")
    if (run_dir / "meta.json").exists():
        store = RunStore.open(run_dir)
        recovery = store.recover()
    else:
        store = RunStore.create(run_dir, config={}, cooldown_ttl=0.0,
                                segment_max_records=5, fsync_every=3)
        recovery = None
    writer = StoreWriter(store, recovery=recovery)
    engine.attach_store(writer, label="ntp")
    try:
        with fault_injection(hook):
            results = ScanResults()
            for target in GROUP_TARGETS:
                engine.feed(target, results)
    finally:
        writer.close()
    return recovery


@pytest.fixture(scope="module")
def clean_groups(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("groups") / "clean"
    scan_groups(run_dir)
    return run_dir


@pytest.mark.parametrize("seed", CRASH_SEEDS)
@pytest.mark.parametrize("point", ["pre-append", "post-append"])
def test_crash_inside_a_refused_group_resumes_mid_group(
        tmp_path, clean_groups, seed, point):
    """Crash at each record of one all-refused target's group of eight
    (the target picked by the seed); the log ends at the crash, the
    resume goes live at exactly the next record, and the finished log
    is the uninterrupted one, byte for byte."""
    # Not the last target: the resume must have a record left to append.
    target = random.Random(seed).choice(
        [i for i, address in enumerate(GROUP_TARGETS[:-1])
         if address != GROUP_OPEN])
    addr = f"2001:db8:700::{target + 1:x}"
    records = list(WalReader(clean_groups / "wal").records())
    admit = next(record["seq"] for record in records
                 if record["t"] == "admit" and record["addr"] == addr)
    group = records[admit:admit + 8]
    assert [(record["t"], record["addr"]) for record in group] == \
        [("grab", addr)] * 8
    for member in range(8):
        crash_at = admit + 1 + member
        run_dir = tmp_path / f"{point}-{member}"

        def crash(at, seq, acked):
            if at == point and seq == crash_at:
                raise SimulatedCrash()

        with pytest.raises(SimulatedCrash):
            scan_groups(run_dir, crash)
        survived = crash_at - (point == "pre-append")
        live = []
        recovery = scan_groups(run_dir, lambda at, seq, acked:
                               live.append(seq) if at == "pre-append"
                               else None)
        assert recovery.last_seq == survived, member
        assert live[0] == survived + 1, member
        assert store_bytes(run_dir) == store_bytes(clean_groups), member
