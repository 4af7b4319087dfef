"""Real-time coupling between address collection and active scanning.

The paper feeds every *newly* sourced address into zgrab2 immediately —
a necessity, not an optimization: end-user addresses churn so fast that
a batch scan hours later would mostly probe dead addresses (Section 6,
"aggregating NTP-sourced addresses into a list is not useful").

:meth:`RealTimeScanQueue.on_sighting` is a dataset's new-address hook:
it hands each first sighting, in place, to a
:class:`~repro.scan.engine.ScanEngine`, which leaves the collection
campaign's clock where it is.  A probe never sights an address, so no
target waits behind another and none is dropped.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import current_registry
from repro.scan.result import ScanResults


class RealTimeScanQueue:
    """Scans every newly collected address as it arrives.

    Counts each sighting in ``stage_received_total`` and
    ``stage_processed_total`` under ``stage="realtime-scan"``; the
    engine's own series say whether it was admitted or cooled down.
    """

    def __init__(self, engine, results: Optional[ScanResults] = None) -> None:
        self.engine = engine
        self.results = results if results is not None else ScanResults(label="ntp")
        metrics = current_registry()
        self._m_received = metrics.counter("stage_received_total",
                                           stage="realtime-scan")
        self._m_processed = metrics.counter("stage_processed_total",
                                            stage="realtime-scan")
        self._m_dropped = metrics.counter("stage_dropped_total",
                                          stage="realtime-scan")

    def on_sighting(self, address: int, time: float,
                    server_location: str) -> None:
        """Scan one first sighting (a dataset's new-address hook)."""
        self._m_received.inc()
        self._m_processed.inc()
        self.engine.feed(address, self.results)

    def mark_dropped(self, count: int = 1) -> None:
        """Count ``count`` sightings that were not scanned.

        Nothing in the program calls it, since every sighting is
        scanned in place.  perfbench's tracer counts its calls as
        ``core.realtime_dropped``, so it stays until that metric goes.
        """
        self._m_dropped.inc(count)
