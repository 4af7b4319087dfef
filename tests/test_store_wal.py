"""Unit tests for the durable run store: WAL, checkpoints, recovery.

The crash-injection and golden-resume suites exercise the store through
the full pipeline; these tests pin the primitives' contracts directly —
framing, CRCs, segment rolling, fsync acking, torn-tail repair,
checkpoint atomicity, compaction arithmetic, and the CLI surface.
"""

import json
import random
import zlib

import pytest

from repro.cli import main
from repro.store import (
    Checkpoint,
    RecoveryError,
    RunStore,
    StoreWriter,
    WalError,
    WalReader,
    WalWriter,
    fault_injection,
    latest_checkpoint,
    list_segments,
    load_checkpoint,
    read_study,
    record_crc,
    save_checkpoint,
    segment_name,
)
from repro.store.wal import segment_first_seq

from tests.wal_reference import read_all, verify_record

COOLDOWN = 259_200.0  # the engine default: 3 simulated days


def make_store(tmp_path, **overrides):
    params = dict(config={"seed": 7}, cooldown_ttl=COOLDOWN,
                  segment_max_records=4, fsync_every=2)
    params.update(overrides)
    return RunStore.create(tmp_path / "run", **params)


def sighting(i):
    return {"t": "sighting", "addr": f"2001:db8::{i:x}",
            "time": float(i), "server": "Germany"}


class TestRecordFraming:
    def test_crc_round_trip(self):
        payload = sighting(1)
        crc = record_crc(5, payload)
        assert verify_record({"crc": crc, "seq": 5, **payload})

    def test_crc_detects_any_field_change(self):
        payload = sighting(1)
        record = {"crc": record_crc(5, payload), "seq": 5, **payload}
        assert not verify_record({**record, "time": 2.0})
        assert not verify_record({**record, "seq": 6})

    def test_crc_covers_non_ascii(self):
        a = record_crc(1, {"t": "mark", "server": "Köln"})
        b = record_crc(1, {"t": "mark", "server": "Koln"})
        assert a != b

    def test_chain_is_order_sensitive(self, tmp_path):
        # The writer folds each record's 8 stored CRC digits in seq order.
        writer = WalWriter(tmp_path)
        for i in (1, 2):
            writer.append(sighting(i))
        writer.close()
        one, two = (record_crc(i, sighting(i)).encode("ascii")
                    for i in (1, 2))
        assert writer.chain == zlib.crc32(two, zlib.crc32(one))
        assert writer.chain != zlib.crc32(one, zlib.crc32(two))

    def test_segment_names_sort_with_sequence(self):
        names = [segment_name(seq) for seq in (1, 9, 10, 3000, 10**11)]
        assert names == sorted(names)
        assert segment_first_seq(segment_name(10**11)) == 10**11


class TestWalWriter:
    def test_rolls_segments_at_max_records(self, tmp_path):
        writer = WalWriter(tmp_path, segment_max_records=3, fsync_every=1)
        for i in range(7):
            writer.append(sighting(i))
        writer.close()
        segments = list_segments(tmp_path)
        assert [p.name for p in segments] == [
            segment_name(1), segment_name(4), segment_name(7)]

    def test_ack_advances_only_on_fsync(self, tmp_path):
        writer = WalWriter(tmp_path, fsync_every=3)
        writer.append(sighting(0))
        writer.append(sighting(1))
        assert writer.acked_seq == 0  # batch not full, nothing synced
        writer.append(sighting(2))
        assert writer.acked_seq == 3  # batch boundary fsynced
        writer.append(sighting(3))
        assert writer.sync() == 4
        writer.close()

    def test_reader_reproduces_writer_chain(self, tmp_path):
        writer = WalWriter(tmp_path, segment_max_records=5, fsync_every=2)
        for i in range(13):
            writer.append(sighting(i))
        writer.close()
        records, reader = read_all(tmp_path)
        assert len(records) == 13
        assert reader.last_seq == writer.last_seq
        assert reader.chain == writer.chain

    def test_large_sequence_numbers_survive(self, tmp_path):
        """seq > 2^53 (beyond float53 precision) must round-trip exactly."""
        start = 2**53 + 3
        writer = WalWriter(tmp_path, next_seq=start)
        writer.append(sighting(1))
        writer.close()
        records, reader = read_all(tmp_path, start_seq=start)
        assert records[0]["seq"] == start
        assert reader.last_seq == start

    def test_non_ascii_payloads_round_trip(self, tmp_path):
        writer = WalWriter(tmp_path)
        payload = {"t": "mark", "phase": "día-final", "day": 1,
                   "clock": 0.0, "targets": {"ntp-köln": 5}}
        writer.append(payload)
        writer.close()
        records, _ = read_all(tmp_path)
        assert records[0]["phase"] == "día-final"
        assert records[0]["targets"] == {"ntp-köln": 5}


class TestWalReader:
    def _write(self, tmp_path, count, **kwargs):
        writer = WalWriter(tmp_path, **kwargs)
        for i in range(count):
            writer.append(sighting(i))
        writer.close()
        return writer

    def test_torn_tail_is_tolerated_and_repaired(self, tmp_path):
        self._write(tmp_path, 5, segment_max_records=10)
        segment = list_segments(tmp_path)[-1]
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"t": "sighting", "half')  # crash mid-write
        records, reader = read_all(tmp_path, repair=True)
        assert len(records) == 5
        assert reader.truncated_lines == 1
        # Repair truncated the file: a fresh read sees a clean log.
        records, reader = read_all(tmp_path)
        assert len(records) == 5 and reader.truncated_lines == 0

    def test_torn_tail_inside_a_multibyte_character(self, tmp_path):
        """A crash mid-way through ``Köln`` leaves a partial UTF-8
        character; recovery truncates it like any torn tail."""
        store = make_store(tmp_path, segment_max_records=10)
        writer = store.new_writer()
        for i in range(3):
            writer.append(sighting(i))
        writer.close()
        segment = list_segments(store.wal_dir)[-1]
        with open(segment, "ab") as handle:
            handle.write('{"addr": "2001:db8::3", "crc": "0badc0de", '
                         '"seq": 4, "server": "K'.encode() + b"\xc3")
        recovery = store.recover(repair=True)
        assert recovery.last_seq == 3
        assert recovery.truncated_lines == 1
        records, reader = read_all(store.wal_dir)
        assert [record["seq"] for record in records] == [1, 2, 3]
        assert reader.truncated_lines == 0
        assert list(recovery.crcs) == [int(record["crc"], 16)
                                       for record in records]
        assert segment.read_bytes().endswith(b"}\n")

    def test_invalid_utf8_in_the_middle_raises(self, tmp_path):
        self._write(tmp_path, 4, segment_max_records=10)
        segment = list_segments(tmp_path)[0]
        lines = segment.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b"sighting", b"sight\xffng")
        segment.write_bytes(b"\n".join(lines))
        with pytest.raises(WalError, match=":2: corrupt WAL record"):
            list(WalReader(tmp_path).records())

    def test_corruption_in_the_middle_raises(self, tmp_path):
        self._write(tmp_path, 6, segment_max_records=10)
        segment = list_segments(tmp_path)[0]
        lines = segment.read_text().splitlines()
        lines[2] = lines[2].replace("sighting", "sabotage")
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalError, match="corrupt WAL record"):
            list(WalReader(tmp_path).records())

    def test_sequence_gap_raises(self, tmp_path):
        self._write(tmp_path, 6, segment_max_records=10)
        segment = list_segments(tmp_path)[0]
        lines = segment.read_text().splitlines()
        del lines[2]
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalError, match="sequence gap"):
            list(WalReader(tmp_path).records())


class TestCheckpoints:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = Checkpoint(seq=42, chain=0xDEAD,
                                state={"clock": 86400.0, "targets": {"ntp": 7}})
        path = save_checkpoint(tmp_path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded == checkpoint

    def test_corrupt_checkpoint_is_rejected_and_skipped(self, tmp_path):
        save_checkpoint(tmp_path, Checkpoint(seq=10, chain=1, state={}))
        newest = save_checkpoint(tmp_path, Checkpoint(seq=20, chain=2,
                                                      state={}))
        newest.write_text(newest.read_text().replace('"chain": 2',
                                                     '"chain": 3'))
        with pytest.raises(WalError, match="CRC mismatch"):
            load_checkpoint(newest)
        # latest_checkpoint falls back to the next-newest valid file.
        assert latest_checkpoint(tmp_path).seq == 10

    def test_bit_rotted_checkpoint_falls_back(self, tmp_path):
        """Invalid UTF-8 is a typed corruption, never UnicodeDecodeError."""
        save_checkpoint(tmp_path, Checkpoint(seq=10, chain=1, state={}))
        newest = save_checkpoint(tmp_path, Checkpoint(
            seq=20, chain=2, state={"note": "Köln"}))
        newest.write_bytes(newest.read_bytes().replace("ö".encode(),
                                                       b"\xff\xfe"))
        with pytest.raises(WalError, match="malformed checkpoint"):
            load_checkpoint(newest)
        assert latest_checkpoint(tmp_path).seq == 10

    def test_tmp_files_are_invisible(self, tmp_path):
        save_checkpoint(tmp_path, Checkpoint(seq=10, chain=1, state={}))
        (tmp_path / "ckpt-000000000020.json.tmp").write_text("{}")
        assert latest_checkpoint(tmp_path).seq == 10


class TestRunStore:
    def test_create_refuses_to_clobber(self, tmp_path):
        make_store(tmp_path)
        with pytest.raises(WalError, match="already exists"):
            make_store(tmp_path)

    def test_open_requires_meta(self, tmp_path):
        with pytest.raises(WalError, match="not a run store"):
            RunStore.open(tmp_path)

    @pytest.mark.parametrize("content", [b"[1, 2]", b'"run-store"',
                                         b"\xff\xfe{}"])
    def test_open_rejects_unreadable_meta(self, tmp_path, content):
        store = make_store(tmp_path)
        (store.run_dir / "meta.json").write_bytes(content)
        with pytest.raises(WalError, match="not a run store"):
            RunStore.open(store.run_dir)

    @pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe{}",
                                         b'{"kind": '])
    def test_reload_meta_keeps_its_copy_of_unreadable_meta(self, tmp_path,
                                                          content):
        store = make_store(tmp_path)
        before = dict(store.meta)
        (store.run_dir / "meta.json").write_bytes(content)
        assert store.reload_meta() == before

    def test_recover_then_append_continues_sequence(self, tmp_path):
        store = make_store(tmp_path)
        writer = store.new_writer()
        for i in range(6):
            writer.append(sighting(i))
        writer.close()
        recovery = store.recover()
        assert recovery.last_seq == 6
        writer = store.writer_for_append(recovery)
        assert writer.append(sighting(6)) == 7
        writer.close()
        assert store.recover().last_seq == 7

    def test_compact_drops_only_checkpointed_whole_segments(self, tmp_path):
        store = make_store(tmp_path)  # 4 records per segment
        writer = store.new_writer()
        for i in range(10):
            writer.append(sighting(i))
        writer.sync()
        store.write_checkpoint(Checkpoint(seq=writer.last_seq,
                                          chain=writer.chain, state={}))
        writer.close()
        report = store.compact()
        # Segments [1..4] and [5..8] go; [9..10] is the last segment.
        assert report["segments_deleted"] == 2
        assert report["compacted_through"] == 8
        recovery = store.recover()
        assert recovery.compacted_through == 8
        assert recovery.last_seq == 10
        records, _ = read_all(store.wal_dir, start_seq=9)
        assert [r["seq"] for r in records] == [9, 10]
        assert list(recovery.crcs) == [int(r["crc"], 16) for r in records]
        assert store.verify()["ok"]

    def test_compact_without_checkpoint_is_a_noop(self, tmp_path):
        store = make_store(tmp_path)
        writer = store.new_writer()
        for i in range(10):
            writer.append(sighting(i))
        writer.close()
        assert store.compact()["segments_deleted"] == 0
        assert len(list_segments(store.wal_dir)) == 3

    def test_verify_flags_cooldown_violation(self, tmp_path):
        store = make_store(tmp_path)
        writer = store.new_writer()
        admit = {"t": "admit", "engine": "ntp", "addr": "2001:db8::1",
                 "time": 100.0}
        writer.append(admit)
        writer.append({**admit, "time": 100.0 + COOLDOWN / 2})
        writer.close()
        report = store.verify()
        assert not report["ok"]
        assert report["cooldown_violations"] == 1

    def test_verify_accepts_readmission_after_ttl(self, tmp_path):
        store = make_store(tmp_path)
        writer = store.new_writer()
        admit = {"t": "admit", "engine": "ntp", "addr": "2001:db8::1",
                 "time": 100.0}
        writer.append(admit)
        writer.append({**admit, "time": 100.0 + COOLDOWN})
        writer.close()
        assert store.verify()["ok"]

    def test_verify_sweeps_keep_every_violation(self, tmp_path,
                                                monkeypatch):
        """Sweeping the cooldown map after every second admission drops
        only entries no later admission can violate."""
        import repro.store.runstore

        monkeypatch.setattr(repro.store.runstore, "VERIFY_PRUNE_EVERY", 2)
        store = make_store(tmp_path)
        writer = store.new_writer()
        step = COOLDOWN / 4
        for i, host in enumerate([1, 2, 3, 4, 1, 5, 6, 2, 7, 6]):
            writer.append({"t": "admit", "engine": "ntp",
                           "addr": f"2001:db8::{host}", "time": i * step})
        writer.close()
        report = store.verify()
        assert report["cooldown_violations"] == 1
        assert report["problems"] == [
            "seq 10: 2001:db8::6 admitted by ntp 194400s after previous "
            "admit (TTL 259200s)"]

    def test_verify_reports_admission_time_going_back(self, tmp_path):
        store = make_store(tmp_path)
        writer = store.new_writer()
        for seq, time in enumerate([100.0, 500.0, 400.0, 600.0], 1):
            writer.append({"t": "admit", "engine": "ntp",
                           "addr": f"2001:db8::{seq}", "time": time})
        writer.close()
        report = store.verify()
        assert (report["ok"], report["cooldown_violations"]) == (False, 0)
        assert report["problems"] == [
            "seq 3: 2001:db8::3 admitted by ntp 100s before the newest "
            "admission (the cooldown check assumes admission time never "
            "goes back)"]


def _fill(store, count, payload=sighting):
    """Append ``count`` records; returns the chain CRC at each seq."""
    writer = store.new_writer()
    chains = {}
    for i in range(count):
        writer.append(payload(i))
        chains[writer.last_seq] = writer.chain
    writer.close()
    return chains


def _report(**members):
    """``verify``'s report on ten intact sightings, ``members`` changed."""
    report = {"ok": True, "records": 10, "records_by_kind": {"sighting": 10},
              "last_seq": 10, "torn_tail_lines": 0, "compacted_through": 0,
              "checkpoints": 0, "cooldown_violations": 0, "problems": []}
    report.update(members)
    return report


def _assert_report(store, expected):
    # json.dumps keeps insertion order: the keys' order is pinned too.
    assert json.dumps(store.verify()) == json.dumps(expected)


class TestCheckpointCrossChecks:
    """What ``recover`` and ``verify`` make of each checkpoint: the
    newest valid one must agree with the log for a resume, and
    ``verify`` reports every checkpoint's problems after the log's, in
    checkpoint order."""

    def test_recover_rejects_a_newest_checkpoint_off_the_chain(
            self, tmp_path):
        store = make_store(tmp_path)
        chains = _fill(store, 10)
        store.write_checkpoint(Checkpoint(seq=6, chain=chains[6] ^ 1,
                                          state={}))
        for repair in (True, False):
            with pytest.raises(WalError, match=(
                    r"^checkpoint ckpt-000000000006\.json chain mismatch: "
                    r"log disagrees with snapshot at seq 6$")):
                store.recover(repair=repair)
        _assert_report(store, _report(
            ok=False, checkpoints=1,
            problems=["ckpt-000000000006.json: chain mismatch at seq 6"]))

    def test_checkpoint_at_the_compaction_horizon(self, tmp_path):
        store = make_store(tmp_path)  # 4 records per segment
        chains = _fill(store, 10)
        store.write_checkpoint(Checkpoint(seq=8, chain=chains[8], state={}))
        assert store.compact()["compacted_through"] == 8
        recovery = store.recover()
        assert (recovery.checkpoint.seq, recovery.last_seq,
                recovery.chain) == (8, 10, chains[10])
        compacted = _report(records=2, records_by_kind={"sighting": 2},
                            compacted_through=8, checkpoints=1)
        _assert_report(store, compacted)
        # Off the chain the compaction recorded: a resume refuses it,
        # while verify skips a checkpoint whose records are gone.
        store.write_checkpoint(Checkpoint(seq=8, chain=chains[8] ^ 1,
                                          state={}))
        with pytest.raises(WalError, match=(
                r"^checkpoint ckpt-000000000008\.json chain mismatch: "
                r"log disagrees with snapshot at seq 8$")):
            store.recover()
        _assert_report(store, compacted)

    def test_corrupt_newest_checkpoint(self, tmp_path):
        store = make_store(tmp_path)
        chains = _fill(store, 10)
        store.write_checkpoint(Checkpoint(seq=4, chain=chains[4], state={}))
        path = store.write_checkpoint(Checkpoint(seq=8, chain=chains[8],
                                                 state={}))
        path.write_text(path.read_text().replace(
            f'"chain": {chains[8]}', f'"chain": {chains[8] ^ 1}'))
        recovery = store.recover()
        assert (recovery.checkpoint.seq, recovery.last_seq,
                recovery.chain) == (4, 10, chains[10])
        _assert_report(store, _report(
            ok=False, checkpoints=2,
            problems=["ckpt-000000000008.json: checkpoint CRC mismatch"]))

    def test_older_checkpoint_off_the_chain(self, tmp_path):
        store = make_store(tmp_path)
        chains = _fill(store, 10)
        store.write_checkpoint(Checkpoint(seq=4, chain=chains[4] ^ 1,
                                          state={}))
        store.write_checkpoint(Checkpoint(seq=8, chain=chains[8], state={}))
        assert store.recover().checkpoint.seq == 8
        _assert_report(store, _report(
            ok=False, checkpoints=2,
            problems=["ckpt-000000000004.json: chain mismatch at seq 4"]))

    def test_checkpoint_past_the_log_end(self, tmp_path):
        store = make_store(tmp_path)
        chains = _fill(store, 10)
        store.write_checkpoint(Checkpoint(seq=8, chain=chains[8], state={}))
        store.write_checkpoint(Checkpoint(seq=12, chain=chains[10],
                                          state={}))
        recovery = store.recover()  # nothing in the log to check it by
        assert (recovery.checkpoint.seq, recovery.last_seq) == (12, 10)
        _assert_report(store, _report(
            ok=False, checkpoints=2,
            problems=["ckpt-000000000012.json: no log record at seq 12"]))

    def test_compacted_store(self, tmp_path):
        store = make_store(tmp_path)
        chains = _fill(store, 10)
        store.write_checkpoint(Checkpoint(seq=4, chain=chains[4], state={}))
        store.write_checkpoint(Checkpoint(seq=8, chain=chains[8], state={}))
        assert store.compact() == {"segments_deleted": 2,
                                   "records_dropped": 8,
                                   "compacted_through": 8}
        recovery = store.recover()
        assert (recovery.checkpoint.seq, recovery.last_seq,
                recovery.chain) == (8, 10, chains[10])
        _assert_report(store, _report(
            records=2, records_by_kind={"sighting": 2}, compacted_through=8,
            checkpoints=2))

    def test_problems_keep_their_order(self, tmp_path):
        """Cooldown violations, then the log's corruption, then each
        checkpoint's problem in checkpoint order."""
        store = make_store(tmp_path)

        def admit(i):
            return {"t": "admit", "engine": "ntp",
                    "addr": f"2001:db8::{i % 2:x}", "time": 100.0 * i}

        chains = _fill(store, 10, admit)
        store.write_checkpoint(Checkpoint(seq=2, chain=chains[2] ^ 1,
                                          state={}))
        store.write_checkpoint(Checkpoint(seq=3, chain=chains[3], state={}))
        store.write_checkpoint(Checkpoint(seq=5, chain=chains[5],
                                          state={})).write_text("{")
        store.write_checkpoint(Checkpoint(seq=9, chain=chains[9], state={}))
        segment = list_segments(store.wal_dir)[1]
        lines = segment.read_text().splitlines()
        lines[2] = lines[2].replace("admit", "admjt")
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalError,
                           match=r"^wal-000000000005\.jsonl:3: corrupt"):
            store.recover()
        violation = ("seq {}: 2001:db8::{} admitted by ntp 200s after "
                     "previous admit (TTL 259200s)")
        _assert_report(store, _report(
            ok=False, records=6, records_by_kind={"admit": 6}, last_seq=6,
            checkpoints=4, cooldown_violations=4,
            problems=[violation.format(3, 0), violation.format(4, 1),
                      violation.format(5, 0), violation.format(6, 1),
                      "wal-000000000005.jsonl:3: corrupt WAL record",
                      "ckpt-000000000002.json: chain mismatch at seq 2",
                      "ckpt-000000000005.json: malformed checkpoint",
                      "ckpt-000000000009.json: no log record at seq 9"]))


class TestStoreWriterUnit:
    def test_fresh_writer_is_live(self, tmp_path):
        store = make_store(tmp_path)
        writer = StoreWriter(store)
        assert writer.mode == "live"
        writer.emit(sighting(0))
        writer.close()
        assert store.recover().last_seq == 1

    def test_verify_mode_switches_live_at_log_end(self, tmp_path):
        store = make_store(tmp_path)
        writer = StoreWriter(store)
        for i in range(5):
            writer.emit(sighting(i))
        writer.close()
        replay = StoreWriter(store, recovery=store.recover())
        assert replay.mode == "verify"
        for i in range(5):
            replay.emit(sighting(i))
        assert replay.mode == "live"
        replay.emit(sighting(5))
        replay.close()
        assert store.recover().last_seq == 6

    def test_divergent_replay_raises(self, tmp_path):
        store = make_store(tmp_path)
        writer = StoreWriter(store)
        writer.emit(sighting(0))
        writer.close()
        replay = StoreWriter(store, recovery=store.recover())
        with pytest.raises(WalError, match="diverged"):
            replay.emit(sighting(99))

    @pytest.mark.parametrize("compacted", [False, True])
    def test_divergence_names_the_logged_record(self, tmp_path, compacted):
        store = make_store(tmp_path)  # 4 records per segment
        writer = StoreWriter(store)
        for i in range(10):
            writer.emit(sighting(i))
        writer.checkpoint({})
        writer.close()
        if compacted:
            assert store.compact()["compacted_through"] == 8
        replay = StoreWriter(store, recovery=store.recover())
        for i in range(9):
            replay.emit(sighting(i))
        with pytest.raises(RecoveryError) as caught:
            replay.emit(sighting(99))
        assert str(caught.value) == (
            f"replay diverged at seq 10: regenerated record (crc "
            f"{record_crc(10, sighting(99))}) does not match logged record "
            f"(seq 10, crc {record_crc(10, sighting(9))}) — the store was "
            "written by a different config, seed, or code version")

    def test_short_replay_fails_loudly_on_close(self, tmp_path):
        store = make_store(tmp_path)
        writer = StoreWriter(store)
        writer.emit(sighting(0))
        writer.emit(sighting(1))
        writer.close()
        replay = StoreWriter(store, recovery=store.recover())
        replay.emit(sighting(0))
        with pytest.raises(WalError, match="log continues"):
            replay.close()

    def test_fault_hook_sees_durability_points(self, tmp_path):
        store = make_store(tmp_path)
        points = []
        with fault_injection(lambda point, seq, acked:
                             points.append(point)):
            writer = StoreWriter(store)
            writer.emit(sighting(0))
            writer.emit(sighting(1))  # fsync_every=2 → batch syncs
            writer.close()
        assert "pre-append" in points and "post-append" in points
        assert "pre-fsync" in points and "post-fsync" in points


class TestIncrementalReader:
    def test_refresh_folds_only_the_new_tail(self, tmp_path):
        store = make_store(tmp_path)
        writer = StoreWriter(store)
        writer.emit(sighting(0))
        writer.mark("lead", 1, 86400.0, {"ntp": 1})
        writer.close()
        reader = read_study(store.run_dir)
        assert reader.scan("ntp").targets_seen == 1

        recovery = store.recover()
        append = store.writer_for_append(recovery)
        append.append(sighting(1))
        append.append({"t": "mark", "phase": "lead", "day": 2,
                       "clock": 2 * 86400.0, "targets": {"ntp": 2}})
        append.close()
        assert reader.refresh() == 2  # only the two new records
        assert reader.scan("ntp").targets_seen == 2


class TestStoreCli:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        store = make_store(tmp_path)
        writer = store.new_writer()
        rng = random.Random(11)
        for i in range(10):
            writer.append(sighting(rng.randrange(1 << 32)))
        writer.sync()
        store.write_checkpoint(Checkpoint(seq=writer.last_seq,
                                          chain=writer.chain, state={}))
        writer.close()
        return str(store.run_dir)

    def test_inspect(self, run_dir, capsys):
        assert main(["store", "inspect", run_dir]) == 0
        out = capsys.readouterr().out
        assert "segments: 3" in out
        assert "checkpoints: 1" in out

    def test_inspect_json(self, run_dir, capsys):
        assert main(["store", "inspect", run_dir,
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["segments"] == 3
        assert document["latest_checkpoint_seq"] == 10

    def test_verify_ok(self, run_dir, capsys):
        assert main(["store", "verify", run_dir]) == 0
        assert capsys.readouterr().out.startswith("OK")

    def test_verify_corrupt_exits_one(self, run_dir, capsys):
        store = RunStore.open(run_dir)
        segment = list_segments(store.wal_dir)[0]
        lines = segment.read_text().splitlines()
        lines[1] = lines[1].replace("sighting", "sabotage")
        segment.write_text("\n".join(lines) + "\n")
        assert main(["store", "verify", run_dir]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_compact(self, run_dir, capsys):
        assert main(["store", "compact", run_dir]) == 0
        assert "compacted 2 segments" in capsys.readouterr().out
        assert main(["store", "verify", run_dir]) == 0

    def test_open_error_exits_two(self, tmp_path, capsys):
        assert main(["store", "inspect", str(tmp_path)]) == 2
        assert "not a run store" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"[1, 2]", b"\xff\xfe{}"])
    def test_unreadable_meta_exits_two(self, run_dir, capsys, content):
        (RunStore.open(run_dir).run_dir / "meta.json").write_bytes(content)
        assert main(["store", "inspect", run_dir]) == 2
        assert "not a run store" in capsys.readouterr().err

    def test_analyze_config_needs_a_source(self, capsys):
        assert main(["analyze"]) == 2
        assert "analyze needs both" in capsys.readouterr().err
