"""Real-time coupling between address collection and active scanning.

The paper feeds every *newly* sourced address into zgrab2 immediately —
a necessity, not an optimization: end-user addresses churn so fast that
a batch scan hours later would mostly probe dead addresses (Section 6,
"aggregating NTP-sourced addresses into a list is not useful").

:class:`RealTimeScanQueue` is a :class:`~repro.runtime.stage.Stage`
whose :meth:`~RealTimeScanQueue.on_sighting` is a dataset's
new-address hook: it buffers sightings in a
:class:`~repro.runtime.stage.BoundedQueue` (real scanner intakes are
finite — when sourcing outruns the scanner, targets are *dropped and
accounted*, not silently queued forever), and drives a
:class:`~repro.scan.engine.ScanEngine` in embedded mode.  Dropped
targets still count toward ``results.targets_seen`` so hit rates keep
the right denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.runtime.stage import BoundedQueue, Stage, StageStats
from repro.scan.result import ScanResults

#: Default intake capacity: generous enough that the paper-shaped
#: campaigns never drop, small enough that runaway sourcing surfaces
#: as accounted drops instead of unbounded memory.
DEFAULT_CAPACITY = 65_536


@dataclass
class RealTimeStats(StageStats):
    """Counters for the coupling layer.

    Extends the uniform stage counters (``received``, ``processed``,
    ``dropped``) with the seed-era names the benches report.
    """

    triggered: int = 0
    scanned: int = 0


class RealTimeScanQueue(Stage):
    """Scans every newly collected address as it arrives."""

    name = "realtime-scan"

    def __init__(self, engine, results: Optional[ScanResults] = None,
                 *, capacity: int = DEFAULT_CAPACITY,
                 auto_drain: bool = True) -> None:
        super().__init__()
        self.engine = engine
        self.results = results if results is not None else ScanResults(label="ntp")
        self.stats = RealTimeStats()
        self.queue: BoundedQueue = BoundedQueue(capacity)
        #: Drain after every intake (the paper's real-time behaviour).
        #: Disable to batch intakes and drain explicitly, as the
        #: backpressure tests do.
        self.auto_drain = auto_drain

    # -- intake -----------------------------------------------------------

    def on_sighting(self, address: int, time: float,
                    server_location: str) -> None:
        """Take one first sighting (a dataset's new-address hook)."""
        self.mark_received()
        self.stats.triggered += 1
        if not self.queue.push(address):
            # Intake full: the scanner cannot keep up.  Account the drop
            # and keep the denominator consistent with the scanned path.
            self.mark_dropped()
            self.results.targets_seen += 1
            return
        self.note_queue_depth(len(self.queue))
        if self.auto_drain:
            self.drain()

    def drain(self, limit: int = -1) -> int:
        """Scan up to ``limit`` queued targets (all when negative)."""
        drained = 0
        for address in self.queue.drain(limit):
            drained += 1
            self.mark_processed()
            if self.engine.feed(address, self.results):
                self.stats.scanned += 1
        return drained

    @property
    def pending(self) -> int:
        """Targets waiting in the intake queue."""
        return len(self.queue)
