"""Segmented write-ahead log: append-only JSONL with CRCs and fsync batching.

The WAL is the durability primitive of :mod:`repro.store`: every event
the pipeline wants to survive a crash (sightings, grabs, scheduler
admissions, progress marks) is appended as one JSONL record before the
in-memory state that produced it is considered safe.  The format is the
repo's canonical JSONL (:func:`repro.io.to_canonical_json` — sorted
keys, raw unicode) with two extra fields per record:

* ``seq`` — a contiguous sequence number starting at 1, so readers can
  detect gaps and writers can resume exactly where a crash stopped;
* ``crc`` — CRC-32 of the canonical record (without the ``crc`` field
  itself), so bit rot and torn writes are detected record-by-record.

Each record is serialized and UTF-8 encoded once, and handled as bytes
from there to the segment file (:func:`encode_record`): the payload's
keys that sort before ``crc`` and those after it (plus ``seq``) are
encoded apart, the CRC is folded over the two halves, and the line is
their join with the ``"crc": "<8 hex>", `` member inserted.  A record
shape written over and over (a refused grab, an admission, a sighting)
is compiled once into a :class:`RecordTemplate`, whose two ``%``
formats render the same line's bytes from its varying members alone; a
group of templates sharing those members (a target's refused grabs) is
rendered from one rendering of them (:func:`encode_group`) and appended
in one call, still one line and one seq per record.  The reader checks
each CRC on the raw line bytes (:func:`parse_line`): cutting that
member out must leave exactly the body the writer hashed, so a line
that is not in canonical form fails as corrupt and no record is ever
re-serialized to be checked.

Records are grouped into segments (``wal-<firstseq>.jsonl``) of at most
``segment_max_records`` records; whole segments below a checkpoint can
be deleted by compaction without rewriting anything.  Segments are
written unbuffered, and an append's lines reach the OS in one write
(:meth:`WalWriter.append`).  Durability is batched: the file is
fsynced every ``fsync_every`` records and at each segment roll, and a
record counts as **acked** only once its batch is synced — the "no lost
acked records" invariant the crash-injection tests enforce is stated in
terms of :attr:`WalWriter.acked_seq`.

A rolling **chain CRC** (CRC-32 folded over every record's ``crc``, its
8 hex digits as stored) summarizes the whole log prefix in one integer.
Checkpoints record the chain at their sequence number, which lets
recovery verify a replayed prefix even after the segments that held it
were compacted away.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from json.encoder import encode_basestring as _encode_str
from math import isfinite
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.io.jsonl import to_canonical_json
from repro.obs.metrics import current_registry

PathLike = Union[str, Path]

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"
#: Digits in a segment's zero-padded first sequence number.  Wide
#: enough for multi-year campaigns (12 digits ≈ 10¹² records).
SEGMENT_DIGITS = 12


class WalError(ValueError):
    """Raised for structural log corruption (gaps, CRC failures)."""


class RecoveryError(WalError):
    """Raised when a recovery replay diverges from the logged run."""


# -- fault injection (crash tests) ------------------------------------------

#: Test hook called at durability-relevant points; raising from it
#: simulates a crash.  Signature: ``hook(point, seq, acked_seq)`` where
#: ``point`` is one of ``pre-append``, ``post-append``, ``pre-fsync``,
#: ``post-fsync``, ``checkpoint``.
_fault_hook: Optional[Callable[[str, int, int], None]] = None


@contextmanager
def fault_injection(hook: Callable[[str, int, int], None]):
    """Install ``hook`` as the store-wide fault hook for a ``with`` block."""
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    try:
        yield
    finally:
        _fault_hook = previous


def fault_point(point: str, seq: int, acked: int) -> None:
    """Invoke the installed fault hook (no-op outside crash tests)."""
    if _fault_hook is not None:
        _fault_hook(point, seq, acked)


# -- record framing ----------------------------------------------------------

#: How a line's own CRC member starts: ``"crc": "<8 hex>", `` follows
#: the payload keys that sort before ``crc`` and precedes the rest.
_CRC_MARK = b'"crc": "'
#: Byte length of that member, ``"crc": "`` + 8 hex digits + ``", ``.
_CRC_MEMBER = len(_CRC_MARK) + 8 + 3
#: ``json.loads`` without its whitespace handling: a canonical line
#: has none around the object.
_DECODER = json.JSONDecoder()
_NESTED_CRC = "WAL payload nests a 'crc' member under a key that sorts before 'crc'"


def record_crc(seq: int, payload: Dict) -> str:
    """CRC-32 (8 hex digits) of the canonical ``{seq, **payload}`` record."""
    canonical = to_canonical_json({"seq": seq, **payload})
    return f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"


def encode_record(seq: int, payload: Dict) -> Tuple[bytes, bytes, int]:
    """Record ``seq``'s CRC, its line (newline included) and the line's
    size in bytes, from one canonical-JSON pass over ``payload``.

    The CRC and line are the UTF-8 bytes of :func:`record_crc` and of
    ``to_canonical_json({"crc": crc, "seq": seq, **payload}) + "\n"``.
    Raises :class:`ValueError` for a payload the log could not read
    back: one with a top-level ``seq`` or ``crc`` key, or one nesting a
    string-valued ``crc`` key under a key that sorts before ``crc``
    (the reader would cut that member instead of the record's own).
    """
    if "seq" in payload or "crc" in payload:
        raise ValueError("WAL payload must not carry its own 'seq' or "
                         f"'crc' key: {sorted(payload)}")
    low = {}
    high = {"seq": seq}
    for key, value in payload.items():
        if key < "crc":
            low[key] = value
        else:
            high[key] = value
    tail = to_canonical_json(high)[1:].encode("utf-8")
    if low:
        head = (to_canonical_json(low)[:-1] + ", ").encode("utf-8")
        if _CRC_MARK in head:
            raise ValueError(_NESTED_CRC)
    else:
        head = b"{"
    return _frame(head, tail)


def _frame(head: bytes, tail: bytes) -> Tuple[bytes, bytes, int]:
    """CRC, line and line size of the record whose canonical body is
    ``head + tail``, split where its ``crc`` member goes."""
    crc = b"%08x" % zlib.crc32(tail, zlib.crc32(head))
    line = b"".join((head, _CRC_MARK, crc, b'", ', tail, b"\n"))
    return crc, line, len(line)


def json_text(value) -> str:
    """``to_canonical_json(value)``, with fast paths for the exact
    types a record's varying members hold."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float:
        if isfinite(value):
            return float.__repr__(value)
    elif kind is int:
        return int.__repr__(value)
    elif value is None:
        return "null"
    elif kind is bool:
        return "true" if value else "false"
    return to_canonical_json(value)


class RecordTemplate:
    """One record shape, compiled once: :meth:`encode` returns what
    :func:`encode_record` returns for the payload with its varying
    members ("holes") set, from two ``%`` formats over bytes.

    ``sample`` is one payload of the shape and ``holes`` names its
    varying top-level members, in key order; :meth:`encode` takes their
    values in that order.  The constant members are rendered by
    :func:`~repro.io.jsonl.to_canonical_json` here and each hole value
    by :func:`json_text` per record, so the bytes are the canonical
    ones for any hole values.  A sample :func:`encode_record` refuses
    raises its :class:`ValueError` here, and so does a hole value that
    nests a ``crc`` member under a key sorting before ``crc``.
    """

    def __init__(self, sample: Dict, holes: Sequence[str]) -> None:
        encode_record(0, sample)  # refuses what the log cannot read back
        holes = tuple(holes)
        if list(holes) != sorted(set(holes)) or not set(holes) <= set(sample):
            raise ValueError(f"holes {holes}: must be distinct keys of the "
                             "sample, in key order")
        #: ``store_records_total`` label of the records.
        self.kind = sample.get("t", "unknown")
        members = {key: to_canonical_json({key: value})[1:-1]
                   .replace("%", "%%")
                   for key, value in sample.items() if key not in holes}
        for key in holes + ("seq",):
            members[key] = to_canonical_json(key).replace("%", "%%") + ": %s"
        keys = sorted(members)
        self._head = ("{" + "".join(members[key] + ", " for key in keys
                                    if key < "crc")).encode("utf-8")
        self._tail = (", ".join(members[key] for key in keys if key > "crc")
                      + "}").encode("utf-8")
        #: Hole values before ``crc`` (in the head), and before ``seq``.
        self._low = sum(key < "crc" for key in holes)
        self._seq_at = sum(key < "seq" for key in holes)

    def encode(self, seq: int, *holes) -> Tuple[bytes, bytes, int]:
        """Record ``seq``'s CRC, line and size, as :func:`encode_record`."""
        return encode_group(seq, (self,), holes)[0]


def encode_group(seq: int, templates: Sequence[RecordTemplate],
                 holes: Sequence) -> List[Tuple[bytes, bytes, int]]:
    """Each of ``templates``' record, with the same hole values, at
    ``seq``, ``seq + 1``, ...: CRC, line and size, as
    :func:`encode_record` returns them for its payload.  The hole
    values' texts are rendered and UTF-8 encoded once for the group."""
    texts = tuple([json_text(hole).encode("utf-8") for hole in holes])
    records = []
    for template in templates:
        low, at = template._low, template._seq_at
        head = template._head % texts[:low]
        if low and _CRC_MARK in head:
            raise ValueError(_NESTED_CRC)
        records.append(_frame(head, template._tail % (
            texts[low:at] + (b"%d" % seq,) + texts[at:])))
        seq += 1
    return records


def parse_line(raw: bytes) -> Optional[Dict]:
    """The record on one raw WAL line (no newline), or ``None`` unless
    the line is exactly as :func:`encode_record` wrote it.

    The CRC is checked on the raw bytes: the first ``"crc": "`` member
    is cut out and the CRC-32 of what remains must equal the stored
    value, which must also be the parsed record's ``crc``.  Only a line
    in canonical form leaves the body the writer hashed, so whitespace
    edits, reordered keys or a nested ``crc`` member that the cut lands
    on fail like any other corruption, as do invalid UTF-8 and JSON.
    """
    at = raw.find(_CRC_MARK)
    end = at + _CRC_MEMBER
    if at < 1 or raw[end - 3:end] != b'", ':
        return None
    stored = raw[at + len(_CRC_MARK):end - 3]
    if b"%08x" % zlib.crc32(raw[end:], zlib.crc32(raw[:at])) != stored:
        return None
    try:
        text = raw.decode("utf-8")
        record, stop = _DECODER.raw_decode(text)
    except ValueError:  # invalid UTF-8 or JSON
        return None
    if (stop != len(text) or not isinstance(record, dict)
            or not isinstance(record.get("seq"), int)
            or record.get("crc") != stored.decode("ascii")):
        return None
    return record


def segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:0{SEGMENT_DIGITS}d}{SEGMENT_SUFFIX}"


def segment_first_seq(name: str) -> int:
    """The first sequence number encoded in a segment file name."""
    stem = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    if (not name.startswith(SEGMENT_PREFIX)
            or not name.endswith(SEGMENT_SUFFIX) or not stem.isdigit()):
        raise WalError(f"not a WAL segment name: {name!r}")
    return int(stem)


def list_segments(wal_dir: PathLike) -> List[Path]:
    """Every segment in ``wal_dir``, ordered by first sequence number."""
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        return []
    segments = [path for path in wal_dir.iterdir()
                if path.name.startswith(SEGMENT_PREFIX)
                and path.name.endswith(SEGMENT_SUFFIX)]
    return sorted(segments, key=lambda path: segment_first_seq(path.name))


# -- writer ------------------------------------------------------------------

class WalWriter:
    """Appends records to segment files with batched fsync.

    ``next_seq``/``chain``/``active_segment`` let a recovered run
    continue appending exactly where the surviving log ends.
    """

    def __init__(self, wal_dir: PathLike, *,
                 segment_max_records: int = 4096,
                 fsync_every: int = 256,
                 next_seq: int = 1,
                 chain: int = 0,
                 active_segment: Optional[Path] = None,
                 active_records: int = 0) -> None:
        if segment_max_records < 1:
            raise ValueError(f"segment_max_records={segment_max_records}: "
                             "must be >= 1")
        if fsync_every < 1:
            raise ValueError(f"fsync_every={fsync_every}: must be >= 1")
        self.wal_dir = Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.segment_max_records = segment_max_records
        self.fsync_every = fsync_every
        self._next_seq = next_seq
        self._chain = chain
        self._acked_seq = next_seq - 1
        self._pending = 0
        self._segment_records = active_records
        self._handle = None
        if active_segment is not None:
            # Unbuffered, as every segment is: see :meth:`append`.
            self._handle = open(active_segment, "ab", buffering=0)
        metrics = current_registry()
        self._m_segments = metrics.counter("store_segments_total")
        self._m_bytes = metrics.counter("store_bytes_total")
        self._m_fsyncs = metrics.counter("store_fsyncs_total")
        self._m_records: Dict[str, object] = {}
        self._registry = metrics

    # -- introspection -----------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended record (0 when none)."""
        return self._next_seq - 1

    @property
    def acked_seq(self) -> int:
        """Highest sequence number known durable (flushed + fsynced)."""
        return self._acked_seq

    @property
    def chain(self) -> int:
        """Rolling chain CRC over every appended record."""
        return self._chain

    # -- appending ---------------------------------------------------------

    def append(self, payload: Union[Dict, RecordTemplate,
                                    Sequence[RecordTemplate]],
               *holes) -> int:
        """Append one record, or a group of them; returns the sequence
        number of the last.

        The record is a payload dict, or a :class:`RecordTemplate`
        followed by its hole values.  A group is a non-empty sequence of
        templates of one kind followed by the hole values they share
        (:func:`encode_group`); a single template is a group of one.
        Every record of a group gets its own seq and line, its own
        ``pre-append`` and ``post-append`` fault points, segment roll
        check and chain CRC, and its own place in the fsync batch,
        exactly as if it were appended alone; the ``store_records_total``
        and ``store_bytes_total`` counters are added once per group, for
        the records written even when a fault hook raises mid-group.

        The group's lines reach the OS in one write: lines are collected
        and written together at the end, and before anything that must
        see them on disk (a fault point, a segment roll, an fsync).  No
        record ever lingers in a user-space buffer, where a crashed
        writer could replay it into the file after recovery has moved
        on.  A record is durable only once its fsync batch completes —
        use :attr:`acked_seq` (or call :meth:`sync`) for the durability
        horizon.  A payload :func:`encode_record` refuses, or hole
        values a template refuses, raise :class:`ValueError` before
        anything is written.
        """
        seq = self._next_seq
        if isinstance(payload, dict):
            records = (encode_record(seq, payload),)
            kind = payload.get("t", "unknown")
        else:
            group = ((payload,) if isinstance(payload, RecordTemplate)
                     else payload)
            records = encode_group(seq, group, holes)
            kind = group[0].kind
        hook = _fault_hook
        lines: List[bytes] = []
        written = nbytes = 0
        try:
            for crc, line, size in records:
                if hook is not None:
                    hook("pre-append", seq, self._acked_seq)
                if (self._handle is None
                        or self._segment_records >= self.segment_max_records):
                    self._write(lines)
                    self._roll(seq)
                lines.append(line)
                self._segment_records += 1
                self._next_seq = seq + 1
                self._chain = zlib.crc32(crc, self._chain)
                self._pending += 1
                written += 1
                nbytes += size
                if hook is not None:
                    self._write(lines)
                    hook("post-append", seq, self._acked_seq)
                if self._pending >= self.fsync_every:
                    self._write(lines)
                    self.sync()
                seq += 1
            self._write(lines)
        finally:
            if written:
                counter = self._m_records.get(kind)
                if counter is None:
                    counter = self._registry.counter("store_records_total",
                                                     kind=kind)
                    self._m_records[kind] = counter
                counter.inc(written)
                self._m_bytes.inc(nbytes)
        return self._next_seq - 1

    def _write(self, lines: List[bytes]) -> None:
        """Hand ``lines`` to the OS in one write, and empty the list.  A
        short write is completed, so no partial line is left behind."""
        if lines:
            data = b"".join(lines)
            lines.clear()
            done = self._handle.write(data)
            while done < len(data):
                done += self._handle.write(data[done:])

    def _roll(self, first_seq: int) -> None:
        """Close the active segment (synced) and start a new one."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
        path = self.wal_dir / segment_name(first_seq)
        self._handle = open(path, "wb", buffering=0)
        self._segment_records = 0
        self._m_segments.inc()

    def sync(self) -> int:
        """Fsync pending records; returns the new acked seq.  Appends
        leave nothing in a user-space buffer, so nothing is flushed."""
        if self._handle is not None and self._pending:
            fault_point("pre-fsync", self.last_seq, self._acked_seq)
            os.fsync(self._handle.fileno())
            self._acked_seq = self.last_seq
            self._pending = 0
            self._m_fsyncs.inc()
            fault_point("post-fsync", self.last_seq, self._acked_seq)
        return self._acked_seq

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None


# -- reader ------------------------------------------------------------------

class WalReader:
    """Reads records in sequence order, verifying CRCs and contiguity.

    After (or during) iteration, :attr:`last_seq`, :attr:`chain` and
    :attr:`truncated_lines` describe what was read.  Segments are read
    as bytes and every line goes through :func:`parse_line`.  A torn
    tail — one or more lines at the *end of the last segment* that are
    cut short, not valid UTF-8 (a crash inside a multi-byte character),
    not JSON, or fail their CRC, the signature of a crash mid-write —
    is tolerated: iteration stops at the last valid record (and the
    file is truncated back to it when ``repair=True``).  Invalid data
    anywhere else is structural corruption and raises :class:`WalError`.
    """

    def __init__(self, wal_dir: PathLike, *, start_seq: int = 1,
                 chain: int = 0) -> None:
        self.wal_dir = Path(wal_dir)
        self.start_seq = start_seq
        self.chain = chain
        self.last_seq = start_seq - 1
        self.truncated_lines = 0
        self.segments_read = 0

    def _segments(self) -> List[Path]:
        """Segments that can hold records >= ``start_seq``.

        Compacted-away prefixes leave no files; a leftover segment from
        a crash mid-compaction is included and filtered record-by-record.
        """
        segments = list_segments(self.wal_dir)
        selected: List[Path] = []
        straddler: Optional[Path] = None
        for path in segments:
            if segment_first_seq(path.name) >= self.start_seq:
                selected.append(path)
            else:
                straddler = path  # highest first_seq below start wins
        if straddler is not None:
            selected.insert(0, straddler)
        return selected

    def records(self, *, repair: bool = False) -> Iterator[Dict]:
        expected = self.start_seq
        selected = self._segments()
        for index, path in enumerate(selected):
            self.segments_read += 1
            last_segment = index == len(selected) - 1
            lines = [(number, line) for number, line
                     in enumerate(path.read_bytes().split(b"\n"), 1)
                     if line.strip()]
            for position, (line_number, line) in enumerate(lines):
                record = parse_line(line)
                if record is None:
                    if last_segment and not any(
                            parse_line(later) is not None
                            for _, later in lines[position + 1:]):
                        # Torn tail: a crash interrupted the final write.
                        self.truncated_lines = len(lines) - position
                        if repair:
                            self._truncate(path, lines[:position])
                        return
                    raise WalError(
                        f"{path.name}:{line_number}: corrupt WAL record")
                if record["seq"] < self.start_seq:
                    continue  # pre-compaction leftovers
                if record["seq"] != expected:
                    raise WalError(
                        f"{path.name}:{line_number}: sequence gap — "
                        f"expected {expected}, found {record['seq']}")
                self.chain = zlib.crc32(record["crc"].encode("ascii"),
                                        self.chain)
                self.last_seq = expected
                expected += 1
                yield record
            del lines  # one segment's lines in memory, not two

    def _truncate(self, path: Path, keep: List[Tuple[int, bytes]]) -> None:
        """Rewrite ``path`` with only its valid prefix (torn-tail
        repair).  The prefix holds acked records, so the rewrite is
        fsynced before the rename makes it the segment."""
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(b"".join(line + b"\n" for _, line in keep))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
