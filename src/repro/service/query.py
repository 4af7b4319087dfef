"""Windowed incremental queries: rolling tables without full replay.

:class:`WindowedStudyReader` is a query engine over a run store's
WAL in *simulated-time spans*: ``window(t0, t1)`` materializes
the paper's Table 2/3 and Figure 2/3 for exactly the grabs whose
timestamps fall in ``[t0, t1)``, with targets-seen denominators taken
as the difference of the cumulative counters carried by the daily
``mark`` records.

The cost contract is the whole point: a window query replays the WAL
from the **nearest usable checkpoint** to the **first mark at or past
the window's end** — never the full log.  Two rules make that sound:

* **anchor slack** — the engines never move the clock, so every grab
  carries its admit record's time; but records stamped with a
  checkpoint's own clock can still be logged *before* that checkpoint
  (the batch study's hitlist grabs precede its ``done`` checkpoint), so
  a grab belonging to window ``[t0, …)`` can sit before a checkpoint
  whose clock is ``t0``.  The anchor is therefore the newest
  checkpoint with ``clock + WINDOW_ANCHOR_SLACK <= t0``.
* **mark-bounded stop** — records are appended in admit order and
  marks close each day, so once a mark with ``clock >= t1`` appears,
  no later record can carry a grab time below ``t1``.

Windows are independent of reader state (each call builds a private
fold), so one reader instance serves many concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.bundle import BROKER_PROTOCOLS, run_analysis, table2_rows
from repro.net.clock import DAY
from repro.obs.metrics import current_registry
from repro.scan.result import PROTOCOLS, ScanResults
from repro.service.config import is_service_document
from repro.store.checkpoint import list_checkpoints, load_checkpoint
from repro.store.reader import CompactedBehindReader
from repro.store.runstore import RunStore
from repro.store.wal import WalError, WalReader

#: How far a window anchor must sit before the window start.  Records
#: stamped with a checkpoint's own clock can be logged before it, so a
#: checkpoint cut at the window start could miss grabs of the window.
#: Any positive margin covers that; 600 s is wider than it needs to be
#: and is kept so anchors, and with them every replay count, stay put.
WINDOW_ANCHOR_SLACK = 600.0

#: Float-comparison slack for day-aligned window arithmetic.
_EPS = 1e-9

#: Most windows one rolling series may build.  Each window is a WAL
#: replay, so a client-chosen step far below the window span must not
#: buy hours of replay; a year of daily windows stays under the cap.
MAX_WINDOWS = 1_000

#: The synthetic anchor name of a from-genesis replay.
GENESIS = "genesis"


@dataclass
class WindowAnchor:
    """A replay starting point: WAL position + clock + denominators."""

    seq: int
    chain: int
    clock: float
    name: str
    targets: Dict[str, int] = field(default_factory=dict)


@dataclass
class WindowFrame:
    """One materialized window: the cacheable document + provenance.

    ``document`` is pure simulated-time content (byte-comparable across
    runs and resume); ``anchor``/``replayed`` are provenance — they
    prove boundedness but never enter the cache key's value or any
    golden comparison.
    """

    start: float
    end: float
    document: Dict
    anchor: WindowAnchor
    replayed: int


def complete_windows(*, since: float, window: float, step: float,
                     horizon: Callable[[], float]
                     ) -> Tuple[float, List[Tuple[float, float]]]:
    """The data horizon and every complete ``[t0, t0 + window)`` span
    from ``since`` on, ``step`` apart (simulated seconds).

    Spans ending past the horizon are left out: a partial window would
    silently undercount, and the next refresh would produce a different
    "same" window.  The spans are checked before ``horizon`` is read,
    and a series of more than :data:`MAX_WINDOWS` spans is refused
    before any window is built.
    """
    if since < 0:
        raise ValueError(f"since={since / DAY}: must be >= 0 days")
    if window <= 0:
        raise ValueError(f"window={window / DAY}: must be positive days")
    if step <= 0:
        raise ValueError(f"step={step / DAY}: must be positive days")
    end = horizon()
    spans = []
    t0 = since
    while t0 + window <= end + _EPS:
        if len(spans) == MAX_WINDOWS:
            raise ValueError(
                f"step={step / DAY}: more than {MAX_WINDOWS} windows "
                f"of {window / DAY} days fit between day {since / DAY} "
                f"and the horizon at day {end / DAY}")
        spans.append((t0, t0 + window))
        t0 += step
    return end, spans


def window_document(results: Dict[str, ScanResults], *,
                    start: float, end: float,
                    targets_start: Dict[str, int],
                    targets_end: Dict[str, int],
                    sightings: int, addresses: int,
                    ntp_label: str = "ntp") -> Dict:
    """The canonical tables of one window (Table 2/3, Fig 2/3).

    Shared by every producer — the windowed reader, the serve front
    end, and the golden tests' independent full-replay fold — so "byte
    identical" means one code path formats the numbers and a second
    one only *selects the records*.  Table 3 and Figures 2–3 come from
    one :func:`~repro.analysis.bundle.run_analysis` of the window.
    Mutates the per-label results' ``targets_seen`` to the window delta
    (callers pass per-window accumulators, never shared state).
    """
    labels = sorted(set(targets_start) | set(targets_end) | set(results))
    deltas = {label: (targets_end.get(label, 0)
                      - targets_start.get(label, 0))
              for label in labels}
    ntp = results.get(ntp_label) or ScanResults(label=ntp_label)
    hitlist = results.get("hitlist") or ScanResults(label="hitlist")
    ntp.targets_seen = deltas.get(ntp_label, 0)
    hitlist.targets_seen = deltas.get("hitlist", 0)
    analysis = run_analysis(ntp, hitlist)
    sides = ((ntp_label, "ntp"), ("hitlist", "hitlist"))
    fig2 = {}
    for label, side in sides:
        report = analysis.ssh[side]
        fig2[label] = {"assessed": report.assessed,
                       "outdated": report.outdated,
                       "unassessable": report.unassessable,
                       "outdated_share": report.outdated_share}
    fig3 = {}
    for protocol in BROKER_PROTOCOLS:
        fig3[protocol] = {}
        for label, side in sides:
            report = analysis.brokers[(side, protocol)]
            fig3[protocol][label] = {
                "open": report.open_count,
                "controlled": report.controlled,
                "unknown": report.unknown,
                "access_control_share": report.access_control_share,
            }
    return {
        "window": {"start": start, "end": end,
                   "days": (end - start) / DAY},
        "sourcing": {"sightings": sightings, "addresses": addresses},
        "targets": deltas,
        "table2": table2_rows(ntp, hitlist, PROTOCOLS),
        "hit_rates": {ntp_label: ntp.hit_rate(),
                      "hitlist": hitlist.hit_rate()},
        "table3": analysis.table3_rows(),
        "fig2": fig2,
        "fig3": fig3,
    }


class WindowedStudyReader:
    """Rolling-window queries over a (possibly live) run store."""

    def __init__(self, store: RunStore) -> None:
        self.store = store
        self._anchors: Dict[str, WindowAnchor] = {}
        document = store.meta.get("config", {})
        #: The realtime scan label (service stores record it; batch
        #: study stores always use "ntp").
        self.ntp_label = (document.get("campaign", {}).get("label", "ntp")
                          if is_service_document(document) else "ntp")
        metrics = current_registry()
        self._m_replayed = metrics.counter("service_replay_records_total")
        self._m_windows = metrics.counter("service_windows_built_total")
        self._m_horizons = metrics.counter("service_horizon_scans_total")

    # -- anchors -----------------------------------------------------------

    def anchors(self) -> List[WindowAnchor]:
        """Every usable checkpoint, seq-ascending (corrupt ones skipped).

        Checkpoint files are immutable once written, so each is loaded
        at most once per reader lifetime.
        """
        loaded = []
        for path in list_checkpoints(self.store.ckpt_dir):
            anchor = self._anchors.get(path.name)
            if anchor is None:
                try:
                    checkpoint = load_checkpoint(path)
                except WalError:
                    continue  # corrupt file; recovery skips it too
                state = checkpoint.state
                anchor = WindowAnchor(
                    seq=checkpoint.seq, chain=checkpoint.chain,
                    clock=state.get("clock", 0.0), name=path.name,
                    targets=dict(state.get("targets", {})))
                self._anchors[path.name] = anchor
            loaded.append(anchor)
        return loaded

    def anchor_for(self, t0: float) -> WindowAnchor:
        """The newest checkpoint safely before ``t0`` (else genesis)."""
        best = WindowAnchor(seq=0, chain=0, clock=float("-inf"),
                            name=GENESIS)
        for anchor in self.anchors():
            if (anchor.clock + WINDOW_ANCHOR_SLACK <= t0 + _EPS
                    and anchor.seq > best.seq):
                best = anchor
        return best

    def _check_compaction(self, anchor: WindowAnchor) -> None:
        horizon = self.store.reload_meta().get("compacted_through", 0)
        if anchor.seq < horizon:
            raise CompactedBehindReader(
                f"{self.store.run_dir}: window needs replay from seq "
                f"{anchor.seq + 1} ({anchor.name}) but the store is "
                f"compacted through seq {horizon}; that history is gone")

    # -- queries -----------------------------------------------------------

    def horizon(self) -> float:
        """Clock of the newest day-end mark (the complete-data frontier).

        Bounded: replays only the tail past the latest checkpoint.
        """
        anchors = self.anchors()
        start = anchors[-1] if anchors else WindowAnchor(
            seq=0, chain=0, clock=float("-inf"), name=GENESIS)
        self._check_compaction(start)
        reader = WalReader(self.store.wal_dir, start_seq=start.seq + 1,
                           chain=start.chain)
        clock = start.clock if start.clock > float("-inf") else 0.0
        replayed = 0
        for record in reader.records():
            replayed += 1
            if record.get("t") == "mark":
                clock = max(clock, record["clock"])
        self._m_replayed.inc(replayed)
        self._m_horizons.inc()
        return clock

    def window(self, t0: float, t1: float, *,
               anchor: Optional[WindowAnchor] = None) -> WindowFrame:
        """Materialize one ``[t0, t1)`` window from bounded replay."""
        if not t1 > t0:
            raise ValueError(f"window=[{t0}, {t1}): end must exceed start")
        if anchor is None:
            anchor = self.anchor_for(t0)
        self._check_compaction(anchor)
        from repro.io.jsonl import grab_from_json

        reader = WalReader(self.store.wal_dir, start_seq=anchor.seq + 1,
                           chain=anchor.chain)
        results: Dict[str, ScanResults] = {}
        baseline = dict(anchor.targets)
        end_targets = dict(anchor.targets)
        sightings = 0
        window_addresses: Set[str] = set()
        replayed = 0
        for record in reader.records():
            replayed += 1
            kind = record.get("t")
            if kind == "grab":
                # A grab's time is its record's: decode only in-window
                # answered ones (a result set holds no refused grab).
                if (t0 <= record["time"] < t1
                        and record.get("ok") is not False):
                    grab = grab_from_json(record)
                    label = record["label"]
                    bucket = results.get(label)
                    if bucket is None:
                        bucket = results[label] = ScanResults(label=label)
                    bucket.bucket(grab.protocol).append(grab)
            elif kind == "sighting":
                if t0 <= record["time"] < t1:
                    sightings += 1
                    window_addresses.add(record["addr"])
            elif kind == "mark":
                clock = record["clock"]
                if clock <= t0 + _EPS:
                    baseline.update(record["targets"])
                if clock <= t1 + _EPS:
                    end_targets.update(record["targets"])
                if clock >= t1 - _EPS:
                    break
        document = window_document(
            results, start=t0, end=t1,
            targets_start=baseline, targets_end=end_targets,
            sightings=sightings, addresses=len(window_addresses),
            ntp_label=self.ntp_label)
        self._m_replayed.inc(replayed)
        self._m_windows.inc()
        return WindowFrame(start=t0, end=t1, document=document,
                           anchor=anchor, replayed=replayed)

    def series(self, *, since: float, window: float,
               step: float) -> List[WindowFrame]:
        """Every complete window of a rolling span (seconds, simulated;
        see :func:`complete_windows`)."""
        _, spans = complete_windows(since=since, window=window, step=step,
                                    horizon=self.horizon)
        return [self.window(t0, t1) for t0, t1 in spans]


class WindowedAttributionReader:
    """Rolling strategy-attribution windows over a telescope stream.

    The attribution counterpart of :class:`WindowedStudyReader`: the
    same span semantics (``[t0, t1)`` windows, complete-windows-only
    series against a data horizon) applied to an in-memory
    :class:`~repro.core.telescope.InboundEvent` stream instead of a WAL
    replay.  Events are held in a canonical sort so every query produces
    byte-identical window documents.
    """

    def __init__(self, events, *, truth=None, rdns=None) -> None:
        self._events = sorted(
            events, key=lambda e: (e.time, e.src, e.dst, e.dst_port))
        self._truth = dict(truth) if truth else {}
        self._rdns = rdns
        self._m_windows = current_registry().counter(
            "service_attribution_windows_total")

    def horizon(self) -> float:
        """The newest event time (the complete-data frontier)."""
        return self._events[-1].time if self._events else 0.0

    def window(self, t0: float, t1: float) -> Dict:
        """Attribute one ``[t0, t1)`` span of the event stream."""
        from repro.core.attribution import attribute_events

        if not t1 > t0:
            raise ValueError(f"window=[{t0}, {t1}): end must exceed start")
        subset = [event for event in self._events
                  if t0 <= event.time < t1]
        report = attribute_events(subset, truth=self._truth,
                                  rdns=self._rdns)
        strategies: Dict[str, int] = {}
        for attribution in report.attributions:
            strategies[attribution.strategy] = (
                strategies.get(attribution.strategy, 0) + 1)
        self._m_windows.inc()
        return {
            "window": {"start": t0, "end": t1, "days": (t1 - t0) / DAY},
            "events": len(subset),
            "clusters": len(report.attributions),
            "strategies": dict(sorted(strategies.items())),
            "accuracy": report.tables()["accuracy"],
        }

    def series(self, *, since: float, window: float,
               step: float) -> List[Dict]:
        """Every complete attribution window of a rolling span (see
        :func:`complete_windows`; a partial window would shift cluster
        verdicts as late probes arrive)."""
        _, spans = complete_windows(since=since, window=window, step=step,
                                    horizon=self.horizon)
        return [self.window(t0, t1) for t0, t1 in spans]
