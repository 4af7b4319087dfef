"""The run store: one directory holding a study's durable state.

Layout of a run directory::

    run_dir/
      meta.json          — store identity: config snapshot, cooldown TTL,
                           WAL tuning, compaction horizon
      wal/wal-*.jsonl    — the segmented write-ahead log
      checkpoints/ckpt-* — atomic replay anchors (WAL seq, chain, clock,
                           targets)

:class:`RunStore` owns the layout and the crash-safety protocol around
it: creating a store, recovering one after a crash (torn-tail repair +
chain verification), compacting segments below the latest checkpoint,
and the offline ``verify``/``inspect`` queries behind the CLI.

The **cooldown invariant** checked by :meth:`RunStore.verify` is the
paper's own scanning-ethics rule (Appendix A.2.1): the same address is
never probed twice within the engine's cool-down TTL.  Every admission
is logged, so the check is a pure fold over the surviving WAL.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.io.jsonl import to_canonical_json
from repro.obs.metrics import current_registry
from repro.store.checkpoint import (
    Checkpoint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.store.wal import (
    WalError,
    WalReader,
    WalWriter,
    list_segments,
    segment_first_seq,
)

PathLike = Union[str, Path]

META_NAME = "meta.json"
META_VERSION = 1
#: Admissions between sweeps of :meth:`RunStore.verify`'s cooldown map
#: (the scan scheduler's :data:`repro.scan.engine.PRUNE_EVERY`).
VERIFY_PRUNE_EVERY = 4096


@dataclass
class Recovery:
    """What survived a crash: the replayable tail plus its provenance.

    The tail is held as its records' CRCs alone, 4 bytes each, which is
    all a verify-mode :class:`~repro.store.writer.StoreWriter` compares
    regenerated records against: the record at seq
    ``compacted_through + 1 + i`` has CRC ``crcs[i]``.
    """

    #: CRC-32 of each record after the compaction horizon, in sequence
    #: order, as unsigned ints (``f"{crc:08x}"`` is the logged text).
    crcs: array = field(default_factory=lambda: array("I"))
    #: Highest surviving sequence number (0 for an empty store).
    last_seq: int = 0
    #: Chain CRC folded through ``last_seq``.
    chain: int = 0
    #: Records at or below this seq were compacted away.
    compacted_through: int = 0
    chain_at_compaction: int = 0
    #: Newest valid checkpoint, if any.
    checkpoint: Optional[Checkpoint] = None
    #: Torn-tail lines truncated from the final segment.
    truncated_lines: int = 0


def _read_meta(path: Path) -> Dict:
    """``meta.json`` as a dict; anything else raises :class:`WalError`."""
    try:
        meta = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or JSON
        raise WalError(f"{path}: not a run store (malformed "
                       "metadata)") from exc
    if not isinstance(meta, dict):
        raise WalError(f"{path}: not a run store (metadata is not a "
                       "JSON object)")
    return meta


class RunStore:
    """A run directory's durable store (WAL + checkpoints + meta)."""

    def __init__(self, run_dir: PathLike, meta: Dict) -> None:
        self.run_dir = Path(run_dir)
        self.meta = meta
        self.wal_dir = self.run_dir / "wal"
        self.ckpt_dir = self.run_dir / "checkpoints"

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, run_dir: PathLike, *, config: Dict,
               cooldown_ttl: float,
               segment_max_records: int = 4096,
               fsync_every: int = 256) -> "RunStore":
        """Initialize an empty store; refuses to clobber an existing one."""
        run_dir = Path(run_dir)
        if (run_dir / META_NAME).exists():
            raise WalError(f"{run_dir}: store already exists "
                           "(use resume, or choose a fresh directory)")
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "wal").mkdir(exist_ok=True)
        (run_dir / "checkpoints").mkdir(exist_ok=True)
        meta = {
            "kind": "run-store",
            "version": META_VERSION,
            "config": config,
            "cooldown_ttl": cooldown_ttl,
            "segment_max_records": segment_max_records,
            "fsync_every": fsync_every,
            "compacted_through": 0,
            "chain_at_compaction": 0,
        }
        store = cls(run_dir, meta)
        store._save_meta()
        return store

    @classmethod
    def open(cls, run_dir: PathLike) -> "RunStore":
        run_dir = Path(run_dir)
        path = run_dir / META_NAME
        if not path.exists():
            raise WalError(f"{run_dir}: not a run store (no {META_NAME})")
        meta = _read_meta(path)
        if meta.get("kind") != "run-store":
            raise WalError(f"{path}: not a run store metadata file")
        if meta.get("version") != META_VERSION:
            raise WalError(
                f"{path}: unsupported store version {meta.get('version')}")
        return cls(run_dir, meta)

    def reload_meta(self) -> Dict:
        """Re-read ``meta.json`` from disk (another process may have
        compacted).  A mid-replace read keeps the in-memory copy —
        ``_save_meta``'s atomic rename guarantees the *next* read sees a
        complete document, and so does any other unreadable one."""
        try:
            self.meta = _read_meta(self.run_dir / META_NAME)
        except (OSError, WalError):
            pass
        return self.meta

    def _save_meta(self) -> None:
        # Same commit protocol as checkpoints: the rename is atomic, so
        # meta either reflects the old horizon or the new one — crashes
        # mid-compaction can strand deletable segments but never lose
        # the chain needed to verify what remains.
        path = self.run_dir / META_NAME
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(to_canonical_json(self.meta) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- writers -----------------------------------------------------------

    def new_writer(self) -> WalWriter:
        """A writer for a fresh (never-written) store."""
        return WalWriter(
            self.wal_dir,
            segment_max_records=self.meta["segment_max_records"],
            fsync_every=self.meta["fsync_every"],
        )

    def writer_for_append(self, recovery: Recovery) -> WalWriter:
        """A writer positioned exactly after the recovered tail."""
        segments = list_segments(self.wal_dir)
        active: Optional[Path] = None
        active_records = 0
        if segments and recovery.last_seq > 0:
            tail = segments[-1]
            first = segment_first_seq(tail.name)
            if first <= recovery.last_seq:
                active = tail
                active_records = recovery.last_seq - first + 1
        return WalWriter(
            self.wal_dir,
            segment_max_records=self.meta["segment_max_records"],
            fsync_every=self.meta["fsync_every"],
            next_seq=recovery.last_seq + 1,
            chain=recovery.chain,
            active_segment=active,
            active_records=active_records,
        )

    # -- recovery ----------------------------------------------------------

    def recover(self, *, repair: bool = True) -> Recovery:
        """Read everything that survived, verifying CRCs and the chain.

        One streaming pass over the surviving log keeps each record's
        CRC (4 bytes, not the record) and notes the chain at the newest
        valid checkpoint's seq, which must equal the checkpoint's own
        chain (a :class:`WalError` otherwise).  With ``repair=True``
        (the default for resuming) a torn tail is truncated in place so
        the next writer appends to a clean segment; ``repair=False``
        leaves the files untouched (used by the read-only CLI paths).
        """
        compacted_through = self.meta.get("compacted_through", 0)
        chain_at_compaction = self.meta.get("chain_at_compaction", 0)
        checkpoint = latest_checkpoint(self.ckpt_dir)
        check_seq = checkpoint.seq if checkpoint is not None else None
        # A checkpoint at the horizon is checked against the chain the
        # compaction recorded; one inside the log, as the pass meets it.
        check = chain_at_compaction if check_seq == compacted_through else None
        reader = WalReader(self.wal_dir, start_seq=compacted_through + 1,
                           chain=chain_at_compaction)
        crcs = array("I")
        append = crcs.append
        for record in reader.records(repair=repair):
            append(int(record["crc"], 16))
            if record["seq"] == check_seq:
                check = reader.chain
        if (checkpoint is not None
                and compacted_through <= checkpoint.seq <= reader.last_seq
                and check != checkpoint.chain):
            raise WalError(
                f"checkpoint {checkpoint.name} chain mismatch: "
                f"log disagrees with snapshot at seq {checkpoint.seq}")
        metrics = current_registry()
        metrics.counter("store_recovery_records_total").inc(len(crcs))
        metrics.counter("store_recovery_truncated_lines_total").inc(
            reader.truncated_lines)
        return Recovery(
            crcs=crcs,
            last_seq=max(reader.last_seq, compacted_through),
            chain=reader.chain,
            compacted_through=compacted_through,
            chain_at_compaction=chain_at_compaction,
            checkpoint=checkpoint,
            truncated_lines=reader.truncated_lines,
        )

    # -- checkpoints ---------------------------------------------------------

    def write_checkpoint(self, checkpoint: Checkpoint) -> Path:
        path = save_checkpoint(self.ckpt_dir, checkpoint)
        current_registry().counter("store_checkpoints_total").inc()
        return path

    # -- compaction ----------------------------------------------------------

    def compact(self) -> Dict:
        """Delete whole segments covered by the latest checkpoint.

        Only segments *entirely* at or below the checkpoint's sequence
        number go (and never the last segment, which the active writer
        may still be appending to).  The meta horizon is committed
        **before** any file is deleted: a crash between the two leaves
        stale segments the reader already knows to skip.
        """
        checkpoint = latest_checkpoint(self.ckpt_dir)
        report = {"segments_deleted": 0, "records_dropped": 0,
                  "compacted_through": self.meta.get("compacted_through", 0)}
        if checkpoint is None:
            return report
        segments = list_segments(self.wal_dir)
        deletable: List[Path] = []
        for index, path in enumerate(segments[:-1]):
            next_first = segment_first_seq(segments[index + 1].name)
            if next_first - 1 <= checkpoint.seq:
                deletable.append(path)
        if not deletable:
            return report
        horizon = segment_first_seq(
            segments[len(deletable)].name) - 1
        # Fold the chain through every record being dropped so readers
        # can still verify the surviving suffix end-to-end.
        reader = WalReader(
            self.wal_dir,
            start_seq=self.meta.get("compacted_through", 0) + 1,
            chain=self.meta.get("chain_at_compaction", 0))
        dropped = 0
        for record in reader.records():
            dropped += 1
            if record["seq"] == horizon:
                break
        self.meta["compacted_through"] = horizon
        self.meta["chain_at_compaction"] = reader.chain
        self._save_meta()
        for path in deletable:
            path.unlink()
        metrics = current_registry()
        metrics.counter("store_compactions_total").inc()
        metrics.counter("store_compacted_segments_total").inc(len(deletable))
        report.update(segments_deleted=len(deletable),
                      records_dropped=dropped, compacted_through=horizon)
        return report

    # -- offline queries -----------------------------------------------------

    def verify(self) -> Dict:
        """Full structural + invariant check; returns a findings report.

        Checks, in order: record CRCs and sequence contiguity (via the
        reader), chain agreement with every checkpoint inside the
        surviving log, and the cooldown invariant — no address admitted
        twice by one engine within ``cooldown_ttl`` simulated seconds.
        The checkpoints are loaded before the pass, which keeps the
        chain only at their seqs; their problems are still reported
        after the log's, in checkpoint order.  Only each checkpoint's
        seq and chain are kept, not its state: a long campaign's
        states together outweigh everything else the check holds.
        """
        problems: List[str] = []
        compacted_through = self.meta.get("compacted_through", 0)
        #: ``(path, (seq, chain))``, or ``(path, error)`` for a
        #: checkpoint that does not load.
        checkpoints: List[tuple] = []
        for path in list_checkpoints(self.ckpt_dir):
            try:
                checkpoint = load_checkpoint(path)
            except WalError as exc:
                checkpoints.append((path, exc))
            else:
                checkpoints.append((path, (checkpoint.seq,
                                           checkpoint.chain)))
        chains_at: Dict[int, Optional[int]] = {
            found[0]: None for _, found in checkpoints
            if isinstance(found, tuple) and found[0] > compacted_through}
        reader = WalReader(self.wal_dir, start_seq=compacted_through + 1,
                           chain=self.meta.get("chain_at_compaction", 0))
        ttl = self.meta.get("cooldown_ttl", 0.0)
        last_admit: Dict[tuple, float] = {}
        newest: Optional[float] = None
        admissions = 0
        cooldown_violations = 0
        counts: Dict[str, int] = {}
        records = 0
        try:
            for record in reader.records():
                records += 1
                kind = record.get("t", "unknown")
                counts[kind] = counts.get(kind, 0) + 1
                if record["seq"] in chains_at:
                    chains_at[record["seq"]] = reader.chain
                if kind == "admit":
                    key = (record["engine"], record["addr"])
                    time = record["time"]
                    previous = last_admit.get(key)
                    if previous is not None and time - previous < ttl:
                        cooldown_violations += 1
                        problems.append(
                            f"seq {record['seq']}: {record['addr']} admitted "
                            f"by {record['engine']} {time - previous:.0f}s "
                            f"after previous admit (TTL {ttl:.0f}s)")
                    last_admit[key] = time
                    if newest is not None and time < newest:
                        problems.append(
                            f"seq {record['seq']}: {record['addr']} admitted "
                            f"by {record['engine']} {newest - time:.0f}s "
                            "before the newest admission (the cooldown "
                            "check assumes admission time never goes back)")
                    else:
                        newest = time
                    admissions += 1
                    if admissions % VERIFY_PRUNE_EVERY == 0:
                        # No later admission can come within the TTL of
                        # an entry this far behind the newest one (the
                        # same subtraction as the check, so rounding
                        # cannot drop an entry the check would flag).
                        last_admit = {key: last for key, last
                                      in last_admit.items()
                                      if newest - last < ttl}
        except WalError as exc:
            problems.append(str(exc))
        for path, found in checkpoints:
            if not isinstance(found, tuple):
                problems.append(str(found))
                continue
            seq, chain = found
            if seq <= compacted_through:
                continue  # its records are gone; nothing to compare
            expected = chains_at[seq]
            if expected is None:
                problems.append(f"{path.name}: no log record at seq {seq}")
            elif expected != chain:
                problems.append(f"{path.name}: chain mismatch at seq {seq}")
        return {
            "ok": not problems,
            "records": records,
            "records_by_kind": counts,
            "last_seq": reader.last_seq,
            "torn_tail_lines": reader.truncated_lines,
            "compacted_through": compacted_through,
            "checkpoints": len(checkpoints),
            "cooldown_violations": cooldown_violations,
            "problems": problems,
        }

    def inspect(self) -> Dict:
        """Cheap summary for the CLI: layout, sizes, positions."""
        segments = list_segments(self.wal_dir)
        checkpoints = list_checkpoints(self.ckpt_dir)
        latest = latest_checkpoint(self.ckpt_dir)
        return {
            "run_dir": str(self.run_dir),
            "segments": len(segments),
            "segment_files": [path.name for path in segments],
            "wal_bytes": sum(path.stat().st_size for path in segments),
            "checkpoints": len(checkpoints),
            "latest_checkpoint_seq": latest.seq if latest else None,
            "compacted_through": self.meta.get("compacted_through", 0),
            "cooldown_ttl": self.meta.get("cooldown_ttl"),
            "segment_max_records": self.meta.get("segment_max_records"),
            "fsync_every": self.meta.get("fsync_every"),
            "config": self.meta.get("config", {}),
        }
