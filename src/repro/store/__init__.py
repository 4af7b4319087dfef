"""Durable run store: write-ahead log, checkpoints, resume, analysis.

The paper's measurement ran for four weeks and ingested billions of
client addresses; a production deployment of the sourcing→scan pipeline
must survive process death without losing history or re-probing targets
inside their cool-down.  This package provides that durability layer:

* :mod:`repro.store.wal` — segmented, CRC'd, fsync-batched append log;
* :mod:`repro.store.checkpoint` — atomic periodic replay anchors;
* :mod:`repro.store.runstore` — the run directory (recovery, compaction,
  offline verify/inspect);
* :mod:`repro.store.writer` — the writer streaming a run into the
  store, with deterministic-replay recovery;
* :mod:`repro.store.reader` — the one replay that reads a stored span
  back as scan results.
"""

from repro.store.checkpoint import (
    Checkpoint,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from repro.store.reader import (
    CompactedBehindReader,
    read_study,
)
from repro.store.runstore import Recovery, RunStore
from repro.store.wal import (
    RecoveryError,
    WalError,
    WalReader,
    WalWriter,
    fault_injection,
    list_segments,
    record_crc,
    segment_name,
)
from repro.store.writer import StoreWriter

__all__ = [
    "Checkpoint",
    "CompactedBehindReader",
    "Recovery",
    "RecoveryError",
    "RunStore",
    "StoreWriter",
    "WalError",
    "WalReader",
    "WalWriter",
    "fault_injection",
    "latest_checkpoint",
    "list_checkpoints",
    "list_segments",
    "load_checkpoint",
    "read_study",
    "record_crc",
    "save_checkpoint",
    "segment_name",
]
