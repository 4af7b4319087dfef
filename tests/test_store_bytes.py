"""The WAL on bytes: what each append hands the OS, and how a bad line
is read back.

Each record is encoded once, as bytes, and an append's lines reach the
segment file in one write, except where a fault point, a segment roll
or an fsync must see them on disk first.  These tests pin that:

* a raw file that takes at most 7 bytes per write still ends up with
  the same segments, because the writer completes every short write,
  whether it opened the segment or continues one;
* inside a fault hook the segments hold exactly the records up to the
  point's own, with no partial line: through ``seq - 1`` at
  ``pre-append``, through ``seq`` at ``post-append`` and through
  ``last_seq`` at ``pre-fsync`` and ``post-fsync``;
* with no hook installed, a group of 8 records takes one write, and an
  fsync or a segment roll inside the group splits it there;
* an invalid UTF-8 line is corruption in the middle of a segment and
  a torn tail at its end;
* torn-tail repair fsyncs the kept prefix before renaming it over the
  segment.
"""

import io
import os
from collections import Counter

import pytest

from repro.store import WalError, WalWriter, fault_injection, list_segments
from repro.store import wal
from repro.store.wal import RecordTemplate, parse_line

from tests.wal_reference import read_all

ADMIT = RecordTemplate({"t": "admit", "engine": "ntp", "addr": "::",
                        "time": 0.0}, ("addr", "time"))
#: Eight refused-grab shapes, one per port: a whole target's group.
GRABS = [RecordTemplate({"t": "grab", "label": "hitlist", "ok": False,
                         "port": port, "addr": "::", "time": 0.0},
                        ("addr", "time"))
         for port in (80, 443, 22, 1883, 8883, 5672, 5671, 5683)]


def append_mixed(writer, targets):
    """Per target, a dict record, a single template and a group of 1
    to 8 templates (70 records over ``range(12)``)."""
    for index in targets:
        address = f"2001:db8::{index:x}"
        writer.append({"t": "sighting", "addr": address,
                       "time": float(index), "server": "Köln"})
        writer.append(ADMIT, address, float(index))
        writer.append(GRABS[:1 + index % len(GRABS)], address, float(index))


def raw_files(monkeypatch, kind):
    """Make the WAL open its segments as ``kind`` raw files; returns
    the list of the files it opens."""
    opened = []

    def fake_open(path, mode, buffering=-1):
        assert buffering == 0, "segments are opened unbuffered"
        handle = kind(path, mode)
        opened.append(handle)
        return handle

    monkeypatch.setattr(wal, "open", fake_open, raising=False)
    return opened


class Trickle(io.FileIO):
    """A raw file that takes at most 7 bytes per write call."""

    calls = 0

    def write(self, data):
        self.calls += 1
        return super().write(bytes(data[:7]))


class Recording(io.FileIO):
    """A raw file that keeps what each write call handed it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return super().write(data)


def test_short_writes_are_completed(tmp_path, monkeypatch):
    expected = tmp_path / "expected"
    writer = WalWriter(expected, segment_max_records=16, fsync_every=5)
    append_mixed(writer, range(12))
    writer.close()

    trickled = tmp_path / "trickled"
    opened = raw_files(monkeypatch, Trickle)
    first = WalWriter(trickled, segment_max_records=16, fsync_every=5)
    append_mixed(first, range(7))
    first.close()
    # A second writer continues the first's active segment.
    active = list_segments(trickled)[-1]
    second = WalWriter(trickled, segment_max_records=16, fsync_every=5,
                       next_seq=first.last_seq + 1, chain=first.chain,
                       active_segment=active,
                       active_records=active.read_bytes().count(b"\n"))
    append_mixed(second, range(7, 12))
    second.close()

    segments = list_segments(expected)
    assert len(segments) > 2
    assert ([path.name for path in list_segments(trickled)]
            == [path.name for path in segments])
    assert ([path.read_bytes() for path in list_segments(trickled)]
            == [path.read_bytes() for path in segments])
    assert second.chain == writer.chain
    size = sum(path.stat().st_size for path in segments)
    assert sum(handle.calls for handle in opened) >= size / 7


def logged_seqs(wal_dir):
    """The seq of every line on disk, in order; a segment never ends in
    a partial line."""
    seqs = []
    for path in list_segments(wal_dir):
        data = path.read_bytes()
        assert data == b"" or data.endswith(b"\n"), path.name
        seqs += [parse_line(raw)["seq"] for raw in data.split(b"\n")[:-1]]
    return seqs


def test_fault_points_see_every_record_up_to_their_own(tmp_path):
    writer = WalWriter(tmp_path, segment_max_records=16, fsync_every=5)
    seen = Counter()

    def hook(point, seq, acked):
        through = seq - 1 if point == "pre-append" else seq
        assert logged_seqs(tmp_path) == list(range(1, through + 1)), point
        if point == "pre-fsync":
            assert seq == writer.last_seq
        seen[point] += 1

    with fault_injection(hook):
        append_mixed(writer, range(12))
        writer.close()
    assert seen["pre-append"] == seen["post-append"] == writer.last_seq == 70
    assert seen["pre-fsync"] == seen["post-fsync"] >= 70 // 5


@pytest.mark.parametrize("segment_max, fsync_every, lines_per_write", [
    (100, 100, [[8]]),
    (100, 3, [[3, 3, 2]]),
    (5, 100, [[5], [3]]),
], ids=["one-write", "split-at-fsync", "split-at-roll"])
def test_a_group_of_eight_takes_one_write(tmp_path, monkeypatch,
                                          segment_max, fsync_every,
                                          lines_per_write):
    opened = raw_files(monkeypatch, Recording)
    writer = WalWriter(tmp_path, segment_max_records=segment_max,
                       fsync_every=fsync_every)
    assert writer.append(GRABS, "2001:db8::1", 1.5) == 8
    assert [[chunk.count(b"\n") for chunk in handle.writes]
            for handle in opened] == lines_per_write
    assert all(chunk.endswith(b"\n") for handle in opened
               for chunk in handle.writes)
    writer.close()


def test_invalid_utf8_line_is_corrupt_mid_segment_and_torn_at_its_end(
        tmp_path):
    writer = WalWriter(tmp_path, fsync_every=1)
    for day in range(5):
        writer.append({"t": "mark", "phase": "day", "day": day})
    writer.close()
    segment = list_segments(tmp_path)[0]
    lines = segment.read_bytes().split(b"\n")[:-1]
    bad = lines[2].replace(b"day", b"d\xffy", 1)
    segment.write_bytes(b"\n".join(lines[:2] + [bad] + lines[3:]) + b"\n")
    with pytest.raises(WalError, match=":3: corrupt WAL record"):
        read_all(tmp_path)
    segment.write_bytes(b"\n".join(lines[:2] + [bad]) + b"\n")
    records, reader = read_all(tmp_path, repair=True)
    assert [record["day"] for record in records] == [0, 1]
    assert reader.truncated_lines == 1
    assert segment.read_bytes() == b"\n".join(lines[:2]) + b"\n"


def test_torn_tail_repair_fsyncs_before_the_rename(tmp_path, monkeypatch):
    writer = WalWriter(tmp_path, fsync_every=1)
    for day in range(3):
        writer.append({"t": "mark", "day": day})
    writer.close()
    segment = list_segments(tmp_path)[0]
    kept = segment.read_bytes()
    with open(segment, "ab") as handle:
        handle.write(b'{"t": "mark", "da')  # crash mid-write
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(source, target):
        events.append(("replace", os.path.basename(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    records, reader = read_all(tmp_path, repair=True)
    assert len(records) == 3 and reader.truncated_lines == 1
    assert events == [("fsync", len(kept)), ("replace", segment.name)]
    assert segment.read_bytes() == kept
