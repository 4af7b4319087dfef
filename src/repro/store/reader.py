"""Incremental readers: analysis over a store without the live run.

``analyze`` used to require the full in-memory study (or its saved
result files).  :class:`IncrementalStudyReader` instead folds a run
directory's WAL into :class:`~repro.scan.result.ScanResults` — and it
does so *incrementally*: each :meth:`refresh` picks up only records
appended since the last call, so a monitoring loop can re-analyze a
running (or crashed) campaign in time proportional to the new tail,
not the whole history.

Answered (``ok``) grab records rebuild the per-protocol result
buckets; a refused grab record is read and counted but builds no grab,
so the folded results hold what the live run's results hold.  ``mark``
records carry the cumulative ``targets_seen`` denominators, so hit
rates from the store match the live pipeline's.  Compaction deletes
old segments, so analysis over a compacted store only covers the
surviving suffix — the pipeline therefore never compacts implicitly
(``repro store compact`` is an explicit operator decision trading
history for disk).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from repro.obs.metrics import current_registry
from repro.scan.result import ScanResults
from repro.store.runstore import RunStore
from repro.store.wal import WalError, WalReader

PathLike = Union[str, Path]


class CompactedBehindReader(WalError):
    """Compaction deleted records an open incremental reader still needs.

    ``repro store compact`` records its horizon in ``meta.json``
    *before* deleting segments; an :class:`IncrementalStudyReader`
    whose fold position lags behind that horizon would silently skip
    the deleted records on its next :meth:`~IncrementalStudyReader.
    refresh` (the WAL reader cannot distinguish "compacted away" from
    "never written").  Raising instead makes the gap explicit: reopen
    with :func:`read_study` to analyze the surviving suffix.
    """


class IncrementalStudyReader:
    """Folds a store's WAL into per-label scan results, resumably."""

    def __init__(self, store: RunStore) -> None:
        self.store = store
        self.results: Dict[str, ScanResults] = {}
        self.last_seq = store.meta.get("compacted_through", 0)
        self._chain = store.meta.get("chain_at_compaction", 0)
        metrics = current_registry()
        self._m_read = metrics.counter("store_analyze_records_total")
        self._m_refreshes = metrics.counter("store_analyze_refreshes_total")

    def _bucket(self, label: str) -> ScanResults:
        results = self.results.get(label)
        if results is None:
            results = ScanResults(label=label)
            self.results[label] = results
        return results

    def refresh(self) -> int:
        """Fold records appended since the last call; returns how many.

        Raises :class:`CompactedBehindReader` if the store was compacted
        past this reader's fold position since the last refresh (the
        horizon is re-read from ``meta.json``, so compaction by another
        process is detected too).
        """
        from repro.io.jsonl import grab_from_json

        meta = self.store.reload_meta()
        horizon = meta.get("compacted_through", 0)
        if horizon > self.last_seq:
            raise CompactedBehindReader(
                f"{self.store.run_dir}: store compacted through seq "
                f"{horizon} but this reader last folded seq "
                f"{self.last_seq}; the records in between were deleted — "
                "reopen with read_study() to analyze the surviving suffix")
        reader = WalReader(self.store.wal_dir, start_seq=self.last_seq + 1,
                           chain=self._chain)
        folded = 0
        for record in reader.records():
            folded += 1
            kind = record.get("t")
            if kind == "grab":
                if record.get("ok") is not False:
                    grab = grab_from_json(record)
                    self._bucket(record["label"]).bucket(
                        grab.protocol).append(grab)
            elif kind == "mark":
                for label, seen in record.get("targets", {}).items():
                    # Marks carry *cumulative* denominators; the latest
                    # mark wins, so replays of the same store converge.
                    self._bucket(label).targets_seen = seen
        self.last_seq = max(reader.last_seq, self.last_seq)
        self._chain = reader.chain
        self._m_read.inc(folded)
        self._m_refreshes.inc()
        return folded

    def scan(self, label: str) -> ScanResults:
        """The (possibly empty) results for one scan label."""
        return self._bucket(label)


def read_study(run_dir: PathLike) -> IncrementalStudyReader:
    """Open ``run_dir`` and fold its entire surviving WAL once."""
    reader = IncrementalStudyReader(RunStore.open(run_dir))
    reader.refresh()
    return reader
