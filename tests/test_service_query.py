"""Golden proofs for the windowed query engine.

The load-bearing equality: a window materialized from *bounded*
checkpoint-anchored replay must be byte-identical to the same window
folded from a *full* from-genesis replay.  The independent fold below
re-implements only the record selection rules (never the table
construction — both sides share :func:`window_document`), so the two
paths agree exactly when anchor choice, mark bracketing, and the
early-stop rule are all correct — across checkpoint boundaries,
segment boundaries, and grab-timestamp jitter.
"""

import shutil

import pytest

from repro.io.jsonl import grab_from_json, to_canonical_json
from repro.net.clock import DAY
from repro.scan.result import ScanResults
from repro.service import (
    WINDOW_ANCHOR_SLACK,
    WindowedStudyReader,
    window_document,
)
from repro.store import CompactedBehindReader, RunStore, read_study
from repro.store.wal import WalReader


@pytest.fixture(scope="module")
def service_store(service_run):
    _, run_dir = service_run
    return RunStore.open(run_dir)


@pytest.fixture(scope="module")
def reader(service_store):
    return WindowedStudyReader(service_store)


def full_replay_document(store, t0, t1, *, ntp_label="ntp"):
    """The same window, selected by an unbounded from-genesis fold."""
    results = {}
    baseline = {}
    end_targets = {}
    sightings = 0
    addresses = set()
    for record in WalReader(store.wal_dir).records():
        kind = record.get("t")
        if kind == "grab":
            grab = grab_from_json(record)
            if t0 <= grab.time < t1:
                label = record["label"]
                bucket = results.setdefault(label,
                                            ScanResults(label=label))
                bucket.bucket(grab.protocol).append(grab)
        elif kind == "sighting":
            if t0 <= record["time"] < t1:
                sightings += 1
                addresses.add(record["addr"])
        elif kind == "mark":
            if record["clock"] <= t0 + 1e-9:
                baseline.update(record["targets"])
            if record["clock"] <= t1 + 1e-9:
                end_targets.update(record["targets"])
    return window_document(
        results, start=t0, end=t1, targets_start=baseline,
        targets_end=end_targets, sightings=sightings,
        addresses=len(addresses), ntp_label=ntp_label)


@pytest.mark.parametrize("start_day,end_day", [
    (0, 4),    # genesis anchor
    (2, 6),    # window straddles the day-3 checkpoint
    (4, 8),    # checkpoint anchor, crosses segment boundaries
    (3, 5),    # narrow window between checkpoints
])
def test_window_equals_full_replay_bytes(service_store, reader,
                                         start_day, end_day):
    t0, t1 = start_day * DAY, end_day * DAY
    frame = reader.window(t0, t1)
    golden = full_replay_document(service_store, t0, t1)
    assert (to_canonical_json(frame.document)
            == to_canonical_json(golden))


@pytest.mark.parametrize("start_day,end_day", [(0, 4), (2, 6), (3, 5)])
def test_window_decodes_only_in_window_grabs(service_store, monkeypatch,
                                             start_day, end_day):
    """Out-of-window grab records are skipped undecoded, yet the window
    still equals the full-replay fold."""
    import repro.io.jsonl

    t0, t1 = start_day * DAY, end_day * DAY
    decoded = []

    def counting(record):
        decoded.append(record["time"])
        return grab_from_json(record)

    monkeypatch.setattr(repro.io.jsonl, "grab_from_json", counting)
    frame = WindowedStudyReader(service_store).window(t0, t1)
    monkeypatch.undo()
    in_window = sum(1 for record in WalReader(service_store.wal_dir).records()
                    if record.get("t") == "grab" and t0 <= record["time"] < t1)
    assert decoded and all(t0 <= time < t1 for time in decoded)
    assert len(decoded) == in_window
    assert (to_canonical_json(frame.document)
            == to_canonical_json(full_replay_document(service_store, t0, t1)))


def test_late_windows_replay_bounded(service_store, reader):
    """A window past the first checkpoint must not start at genesis."""
    frame = reader.window(4 * DAY, 8 * DAY)
    assert frame.anchor.seq > 0, "expected a checkpoint anchor"
    total = sum(1 for _ in WalReader(service_store.wal_dir).records())
    assert frame.replayed < total


def test_anchor_respects_grab_jitter_slack(reader):
    """A checkpoint cut at the window's exact start cannot anchor it:
    records stamped with the checkpoint's own clock may precede it in
    the log."""
    # Stores already written resolve their anchors against this value.
    assert WINDOW_ANCHOR_SLACK == 600.0
    anchor = reader.anchor_for(3 * DAY)
    assert anchor.clock + 600.0 <= 3 * DAY
    # The day-3 checkpoint itself (clock == 3 days) is usable only one
    # slack further on.
    later = reader.anchor_for(3 * DAY + 600.0)
    assert later.clock == 3 * DAY


def test_horizon_is_last_closed_day(reader, service_run):
    result, _ = service_run
    days = result.daemon.config.campaign_days
    assert reader.horizon() == pytest.approx(days * DAY)


def test_series_materializes_only_complete_windows(reader, service_run):
    result, _ = service_run
    days = result.daemon.config.campaign_days
    frames = reader.series(since=0.0, window=4 * DAY, step=2 * DAY)
    assert len(frames) == (days - 4) // 2 + 1
    assert frames[-1].end <= days * DAY + 1e-9
    # A window extending past the horizon is not built at all.
    assert reader.series(since=(days - 2) * DAY,
                         window=4 * DAY, step=2 * DAY) == []


def test_window_rejects_empty_span(reader):
    with pytest.raises(ValueError, match="end must exceed start"):
        reader.window(2 * DAY, 2 * DAY)


def test_targets_are_window_deltas(reader):
    """Denominators subtract the baseline mark — not cumulative."""
    first = reader.window(0.0, 4 * DAY).document
    second = reader.window(4 * DAY, 8 * DAY).document
    full = reader.window(0.0, 8 * DAY).document
    for label in full["targets"]:
        assert (first["targets"].get(label, 0)
                + second["targets"].get(label, 0)
                == full["targets"][label])


# -- compaction vs open readers ---------------------------------------------

@pytest.fixture()
def compactable_store(service_run, tmp_path):
    """A private copy of the campaign store (compaction mutates)."""
    _, run_dir = service_run
    copy_dir = tmp_path / "copy"
    shutil.copytree(run_dir, copy_dir)
    return copy_dir


def test_incremental_reader_detects_compaction(compactable_store):
    from repro.store import IncrementalStudyReader

    # Two readers open pre-compaction: one never refreshed (still at
    # genesis), one fully caught up.
    behind = IncrementalStudyReader(RunStore.open(compactable_store))
    ahead = read_study(compactable_store)
    compacted = RunStore.open(compactable_store).compact()
    assert compacted["segments_deleted"] > 0
    # A reader already past the new horizon keeps refreshing fine...
    ahead.refresh()
    # ...but one behind it gets the typed error, not silent skips.
    with pytest.raises(CompactedBehindReader, match="compacted through"):
        behind.refresh()


def test_windowed_query_detects_compacted_anchor(compactable_store):
    reader = WindowedStudyReader(RunStore.open(compactable_store))
    before = reader.window(0.0, 4 * DAY)  # genesis anchor, still there
    assert before.anchor.seq == 0
    RunStore.open(compactable_store).compact()
    with pytest.raises(CompactedBehindReader, match="that history is gone"):
        reader.window(0.0, 4 * DAY)


def test_read_study_survives_compaction(compactable_store):
    RunStore.open(compactable_store).compact()
    reader = read_study(compactable_store)
    assert reader.last_seq > 0
