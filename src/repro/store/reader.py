"""The one replay: a span of a run store's WAL read back as results.

:func:`replay_span` is the only code that turns WAL grab records into
:class:`~repro.scan.result.ScanResults`.  It reads the records after a
start position (a checkpoint's or the compaction horizon's seq and
chain, with the cumulative ``targets`` denominators there) and keeps
what falls in a simulated-time span ``[t0, t1)``:

* answered (``ok``) grab records rebuild each label's result buckets;
  a refused grab record is read and counted but builds no grab, so the
  results hold what the live run's results hold;
* sighting records count the span's sightings and distinct addresses;
* ``mark`` records carry the cumulative ``targets_seen`` denominators:
  the last mark at or before ``t0`` gives the baseline, the last at or
  before ``t1`` the end, and the first mark at or past ``t1`` stops the
  replay (records are appended in admit order and marks close each
  day, so no later record can fall in the span).

``repro analyze --run-dir`` (:func:`read_study`) replays the whole
surviving log over ``(-inf, inf)``; the service's windows
(:mod:`repro.service.query`) replay a checkpoint-anchored span.
Compaction deletes old segments, so analysis over a compacted store
only covers the surviving suffix — the pipeline therefore never
compacts implicitly (``repro store compact`` is an explicit operator
decision trading history for disk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union

from repro.obs.metrics import current_registry
from repro.scan.result import ScanResults
from repro.store.runstore import RunStore
from repro.store.wal import WalError, WalReader

PathLike = Union[str, Path]

#: Float-comparison slack for day-aligned span arithmetic.
EPS = 1e-9


class CompactedBehindReader(WalError):
    """Compaction deleted records a replay still needs.

    ``repro store compact`` records its horizon in ``meta.json``
    *before* deleting segments.  A replay starting behind that horizon
    would silently skip the deleted records (the WAL reader cannot
    distinguish "compacted away" from "never written"), so a window
    anchored there raises this instead; :func:`read_study` starts at
    the horizon and analyzes the surviving suffix.
    """


@dataclass
class Replay:
    """What one :func:`replay_span` read.

    ``results`` holds each label's answered grabs of the span;
    ``baseline`` and ``targets`` are the cumulative denominators of the
    last mark at or before the span's start and end (the start
    position's where no such mark was read); ``sightings`` and
    ``addresses`` count the span's sighting records and distinct
    addresses; ``clock`` is the newest mark clock read (``-inf`` for
    none) and ``records`` the number of records read.
    """

    results: Dict[str, ScanResults]
    baseline: Dict[str, int]
    targets: Dict[str, int]
    sightings: int
    addresses: int
    clock: float
    records: int

    def scan(self, label: str) -> ScanResults:
        """``label``'s (possibly empty) results, counted against the
        end mark's cumulative denominator."""
        results = self.results.get(label) or ScanResults(label=label)
        results.targets_seen = self.targets.get(label, 0)
        return results


def replay_span(store: RunStore, *, seq: int, chain: int,
                targets: Dict[str, int], t0: float, t1: float) -> Replay:
    """Replay the records after ``seq`` (whose chain value is ``chain``
    and cumulative denominators ``targets``) over ``[t0, t1)``."""
    from repro.io.jsonl import grab_from_json

    results: Dict[str, ScanResults] = {}
    baseline = dict(targets)
    end_targets = dict(targets)
    sightings = 0
    addresses = set()
    clock = -math.inf
    records = 0
    reader = WalReader(store.wal_dir, start_seq=seq + 1, chain=chain)
    for record in reader.records():
        records += 1
        kind = record.get("t")
        if kind == "grab":
            # A grab's time is its record's: decode only answered
            # in-span ones (a result set holds no refused grab).
            if (record.get("ok") is not False
                    and t0 <= record["time"] < t1):
                grab = grab_from_json(record)
                label = record["label"]
                bucket = results.get(label)
                if bucket is None:
                    bucket = results[label] = ScanResults(label=label)
                bucket.bucket(grab.protocol).append(grab)
        elif kind == "sighting":
            if t0 <= record["time"] < t1:
                sightings += 1
                addresses.add(record["addr"])
        elif kind == "mark":
            mark_clock = record["clock"]
            clock = max(clock, mark_clock)
            if mark_clock <= t0 + EPS:
                baseline.update(record["targets"])
            if mark_clock <= t1 + EPS:
                end_targets.update(record["targets"])
            if mark_clock >= t1 - EPS:
                break
    return Replay(results=results, baseline=baseline, targets=end_targets,
                  sightings=sightings, addresses=len(addresses),
                  clock=clock, records=records)


def read_study(run_dir: PathLike) -> Replay:
    """Replay ``run_dir``'s whole surviving log, from the compaction
    horizon (genesis if never compacted) over ``(-inf, inf)``."""
    store = RunStore.open(run_dir)
    stored = replay_span(store, seq=store.meta.get("compacted_through", 0),
                         chain=store.meta.get("chain_at_compaction", 0),
                         targets={}, t0=-math.inf, t1=math.inf)
    current_registry().counter("store_analyze_records_total").inc(
        stored.records)
    return stored
