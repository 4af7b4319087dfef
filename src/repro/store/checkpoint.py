"""Atomic checkpoints: replay anchors keyed to a WAL position.

A checkpoint is one JSON document written atomically (temp file +
``os.replace``) under ``run_dir/checkpoints/``.  It names the WAL
sequence number it covers and the chain CRC at that point; its state,
``{"clock", "targets"}``, is the clock and the cumulative targets-seen
denominators at the progress mark it follows, the windowed queries'
replay anchor.  Its own CRC protects the document.  Deterministic
replay rebuilds every other piece of run state, so nothing else is
stored; a store written when checkpoints also carried counters,
cool-down maps and a metrics snapshot loads the same, because no
reader looks past the anchor.

Checkpoints serve three masters:

* **windowed queries** — a window replays from the newest checkpoint
  whose clock sits safely before its start
  (:mod:`repro.service.query`);
* **compaction** — segments wholly at or below the latest checkpoint's
  sequence number can be deleted, because the chain CRC lets recovery
  verify a replayed prefix without the records themselves;
* **offline verification** — ``repro store verify`` re-derives the
  chain from the surviving log and cross-checks every checkpoint that
  falls inside it.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.io.jsonl import to_canonical_json
from repro.store.wal import WalError

PathLike = Union[str, Path]

CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".json"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """One durable replay anchor at WAL position ``seq``."""

    seq: int
    chain: int
    state: Dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def body(self) -> Dict:
        return {"kind": "checkpoint", "version": self.version,
                "seq": self.seq, "chain": self.chain, "state": self.state}

    def crc(self) -> str:
        canonical = to_canonical_json(self.body())
        return f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"

    @property
    def name(self) -> str:
        return f"{CHECKPOINT_PREFIX}{self.seq:012d}{CHECKPOINT_SUFFIX}"


def save_checkpoint(ckpt_dir: PathLike, checkpoint: Checkpoint) -> Path:
    """Write ``checkpoint`` atomically; returns its path.

    The rename is the commit point: a crash mid-write leaves at worst a
    ``*.tmp`` file that loaders ignore, never a half-written checkpoint.
    """
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    document = dict(checkpoint.body(), crc=checkpoint.crc())
    path = ckpt_dir / checkpoint.name
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(to_canonical_json(document) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read and CRC-validate one checkpoint file.

    Every way the file's bytes can be wrong — invalid UTF-8, malformed
    JSON, the wrong document, a CRC mismatch — raises :class:`WalError`.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or JSON
        raise WalError(f"{path.name}: malformed checkpoint") from exc
    if not isinstance(document, dict) or document.get("kind") != "checkpoint":
        raise WalError(f"{path.name}: not a checkpoint document")
    checkpoint = Checkpoint(
        seq=document.get("seq", 0),
        chain=document.get("chain", 0),
        state=document.get("state", {}),
        version=document.get("version", CHECKPOINT_VERSION),
    )
    if checkpoint.crc() != document.get("crc"):
        raise WalError(f"{path.name}: checkpoint CRC mismatch")
    return checkpoint


def list_checkpoints(ckpt_dir: PathLike) -> List[Path]:
    """Checkpoint files in ``ckpt_dir``, ordered by sequence number."""
    ckpt_dir = Path(ckpt_dir)
    if not ckpt_dir.is_dir():
        return []
    return sorted(
        path for path in ckpt_dir.iterdir()
        if path.name.startswith(CHECKPOINT_PREFIX)
        and path.name.endswith(CHECKPOINT_SUFFIX))


def latest_checkpoint(ckpt_dir: PathLike) -> Optional[Checkpoint]:
    """The newest valid checkpoint, skipping corrupt files.

    A crash can tear at most the in-flight checkpoint (the atomic
    rename makes that one invisible), but a corrupted newest file must
    not wedge recovery — fall back to the next-newest valid one.
    :func:`load_checkpoint` reports every corruption as a
    :class:`WalError`, so bit rot of any kind falls back too.
    """
    for path in reversed(list_checkpoints(ckpt_dir)):
        try:
            return load_checkpoint(path)
        except WalError:
            continue
    return None
