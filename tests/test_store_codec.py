"""Equivalence tests for the WAL record codec.

The writer serializes each record once (:func:`encode_record`) and the
reader checks each CRC on the raw line (:func:`parse_line`).  Both must
agree byte for byte with the definitions they replace, which stay here
as the references:

* the line is ``to_canonical_json({"crc", "seq", **payload}) + "\\n"``
  and the CRC is :func:`record_crc`;
* a line passes the raw check exactly when :func:`verify_record`
  accepts its parse, on every line of a real campaign store, and no
  single flipped byte passes;
* a line not in canonical form never passes, even where the parsed
  record would.
"""

import json
import zlib

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.io.jsonl import to_canonical_json
from repro.store import WalError, WalWriter, list_segments, record_crc
from repro.store.wal import encode_record, parse_line

from tests.wal_reference import read_all, verify_record

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**53, max_value=2**70),
    st.floats(allow_nan=False),
    st.text(),
    st.sampled_from(["Köln", "Gerät — ü", "日本語", "emoji 🎉", 'quote " \\']),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=6),
                                  st.sampled_from(["crc", "seq", "Ä"])),
                        inner, max_size=4)),
    max_leaves=12)
#: Top-level payload keys: any text but the two the WAL adds, biased
#: towards keys that sort next to ``crc`` and ``seq``.
KEYS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["addr", "banner", "clock", "cr", "crc0", "crb",
                     "crd", "sep", "seq0", "t", "time", "ü"]),
).filter(lambda key: key not in ("crc", "seq"))
PAYLOADS = st.dictionaries(KEYS, VALUES, max_size=8)
SEQS = st.one_of(st.integers(min_value=1, max_value=10**6),
                 st.integers(min_value=2**53, max_value=2**64))


def reference_line(seq, payload):
    """The line as the WAL wrote it before the one-pass encoder."""
    crc = record_crc(seq, payload)
    return crc, to_canonical_json({"crc": crc, "seq": seq, **payload}) + "\n"


def nests_crc_below(payload):
    """Whether a value under a key sorting before ``crc`` holds a
    string-valued ``crc`` member (the writer refuses such payloads)."""
    return any('"crc": "' in to_canonical_json(value)
               for key, value in payload.items() if key < "crc")


class TestEncodeRecord:
    @given(SEQS, PAYLOADS)
    def test_line_and_crc_equal_the_reference(self, seq, payload):
        assume(not nests_crc_below(payload))
        crc, line, size = encode_record(seq, payload)
        assert (crc, line) == reference_line(seq, payload)
        assert size == len(line.encode("utf-8"))

    @given(SEQS, PAYLOADS)
    def test_written_line_passes_the_raw_check(self, seq, payload):
        assume(not nests_crc_below(payload))
        _, line, _ = encode_record(seq, payload)
        raw = line.encode("utf-8")[:-1]
        record = parse_line(raw)
        assert record is not None
        assert verify_record(record)
        assert to_canonical_json(record) == to_canonical_json(
            {"crc": record["crc"], "seq": seq, **payload})

    @given(SEQS, PAYLOADS)
    def test_no_keys_below_crc(self, seq, payload):
        payload = {key: value for key, value in payload.items()
                   if key > "crc"}
        crc, line, _ = encode_record(seq, payload)
        assert line.startswith(f'{{"crc": "{crc}", ')
        assert (crc, line) == reference_line(seq, payload)

    def test_known_record_bytes(self):
        payload = {"t": "sighting", "addr": "2001:db8::1", "time": 1.5,
                   "server": "Köln"}
        crc, line, size = encode_record(7, payload)
        assert line == (f'{{"addr": "2001:db8::1", "crc": "{crc}", '
                        '"seq": 7, "server": "Köln", "t": "sighting", '
                        '"time": 1.5}\n')
        assert size == len(line.encode("utf-8"))

    @pytest.mark.parametrize("key", ["seq", "crc"])
    def test_reserved_top_level_keys_are_refused(self, key):
        with pytest.raises(ValueError, match="'seq' or 'crc'"):
            encode_record(1, {"t": "mark", key: 99})

    def test_nested_crc_below_crc_is_refused(self):
        with pytest.raises(ValueError, match="nests a 'crc' member"):
            encode_record(1, {"addr": {"crc": "00000000"}, "t": "x"})

    def test_nested_crc_elsewhere_round_trips(self):
        payload = {"addr": {"crc": 5}, "targets": {"crc": "00000000"},
                   "t": "mark"}
        _, line, _ = encode_record(3, payload)
        assert line == reference_line(3, payload)[1]
        assert parse_line(line.encode("utf-8")[:-1]) is not None


class TestAppendRefusals:
    @pytest.mark.parametrize("key", ["seq", "crc"])
    def test_append_refuses_reserved_keys_before_writing(self, tmp_path,
                                                         key):
        writer = WalWriter(tmp_path, fsync_every=1)
        writer.append({"t": "mark", "day": 1})
        before = [path.read_bytes() for path in list_segments(tmp_path)]
        with pytest.raises(ValueError):
            writer.append({"t": "mark", key: 99})
        assert writer.last_seq == 1
        assert [path.read_bytes()
                for path in list_segments(tmp_path)] == before
        writer.append({"t": "mark", "day": 2})
        writer.close()
        records, reader = read_all(tmp_path)
        assert [record["seq"] for record in records] == [1, 2]
        assert reader.truncated_lines == 0

    def test_refused_first_record_writes_no_segment(self, tmp_path):
        writer = WalWriter(tmp_path)
        with pytest.raises(ValueError):
            writer.append({"seq": 1})
        writer.close()
        assert list_segments(tmp_path) == []


def canonical_line(seq, payload):
    return reference_line(seq, payload)[1].encode("utf-8")[:-1]


class TestRawLineCheck:
    def test_whitespace_edits_fail(self):
        raw = canonical_line(4, {"t": "sighting", "addr": "2001:db8::1",
                                 "time": 2.0, "server": "Köln"})
        edits = [raw.replace(b", ", b",", 1),
                 raw.replace(b", ", b",  ", 1),
                 raw.replace(b": ", b":", 1),
                 b" " + raw, raw + b" ", raw + b"\r",
                 raw.replace(b'"time": 2.0', b'"time": 2.00')]
        for edited in edits:
            assert edited != raw
            # The parse is the same record, which verify_record accepts;
            # the raw check refuses the bytes the writer never wrote.
            assert verify_record(json.loads(edited))
            assert parse_line(edited) is None, edited

    def test_reordered_keys_fail(self):
        record = json.loads(canonical_line(4, {"t": "admit",
                                               "addr": "2001:db8::2",
                                               "engine": "ntp",
                                               "time": 3.0}))
        unsorted = json.dumps(dict(reversed(record.items())),
                              ensure_ascii=False).encode()
        moved = dict(record)
        crc = moved.pop("crc")
        crc_last = json.dumps({**moved, "crc": crc}, ensure_ascii=False,
                              sort_keys=False).encode()
        for edited in (unsorted, crc_last):
            assert verify_record(json.loads(edited))
            assert parse_line(edited) is None

    def test_nested_crc_the_cut_lands_on_fails(self):
        """A canonical line the writer refuses to write: the first
        ``"crc": "`` member is a nested one, so the raw check cuts the
        wrong member and the line fails."""
        payload = {"addr": {"crc": "00000000", "x": 1}, "t": "x"}
        raw = canonical_line(1, payload)
        assert verify_record(json.loads(raw))
        assert parse_line(raw) is None

    def test_partial_lines_fail(self):
        raw = canonical_line(2, {"t": "mark", "server": "Köln"})
        for cut in range(len(raw)):
            assert parse_line(raw[:cut]) is None

    @pytest.mark.parametrize("text", [b"\xff", b"K\xc3", b"\xc3\x28",
                                      b"\xed\xa0\x80"])
    def test_invalid_utf8_fails_even_with_a_matching_crc(self, text):
        body = b'{"seq": 1, "t": "' + text + b'"}'
        raw = b'{"crc": "%08x", ' % zlib.crc32(body) + body[1:]
        assert parse_line(raw) is None


@pytest.fixture(scope="module")
def campaign_lines(service_run):
    """Every raw line of a real campaign store's WAL."""
    _, run_dir = service_run
    lines = [line for path in list_segments(run_dir / "wal")
             for line in path.read_bytes().split(b"\n") if line]
    assert len(lines) > 1000
    return lines


def test_raw_check_accepts_exactly_what_verify_record_accepts(
        campaign_lines):
    for raw in campaign_lines:
        parsed = json.loads(raw)
        assert verify_record(parsed)
        assert parse_line(raw) == parsed


def test_raw_check_rejects_every_single_flipped_byte(campaign_lines):
    """One line of every record shape, every byte position, several
    flips: the raw check refuses them all."""
    samples = {}
    for raw in campaign_lines:
        record = json.loads(raw)
        samples.setdefault((record["t"], record.get("type")), raw)
    assert len(samples) >= 4
    for raw in samples.values():
        for position in range(len(raw)):
            for mask in (0x01, 0x02, 0x20, 0x40, 0x80, 0xFF):
                flipped = bytearray(raw)
                flipped[position] ^= mask
                assert parse_line(bytes(flipped)) is None, (position, mask)


def test_store_reader_raises_on_a_non_canonical_middle_line(tmp_path):
    writer = WalWriter(tmp_path, fsync_every=1)
    for day in range(3):
        writer.append({"t": "mark", "day": day})
    writer.close()
    segment = list_segments(tmp_path)[0]
    lines = segment.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b", ", b",", 1)
    segment.write_bytes(b"\n".join(lines))
    with pytest.raises(WalError, match=":2: corrupt WAL record"):
        read_all(tmp_path)
