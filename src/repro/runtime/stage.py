"""Stages: named processing steps with bounded queues and drop accounting.

A :class:`Stage` is one processing step of the sourcing→scan path.  It
buffers work in a :class:`BoundedQueue` (real scanners have finite
intake — zgrab2 reads from a pipe that can fill) and accounts
explicitly for every item it had to drop.  Backpressure in this
synchronous simulation is therefore *visible* instead of silently
absorbed: a stage that cannot keep up reports ``stats.dropped`` rather
than growing without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Generic, Iterator, TypeVar

from repro.obs.metrics import current_registry

T = TypeVar("T")


@dataclass
class StageStats:
    """Uniform counters every stage exposes."""

    received: int = 0
    processed: int = 0
    dropped: int = 0


class BoundedQueue(Generic[T]):
    """A FIFO with a hard capacity and drop accounting.

    ``push`` returns ``False`` (and counts a drop) instead of growing
    past ``capacity`` — the explicit backpressure signal stages report.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._items: Deque[T] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: T) -> bool:
        """Enqueue ``item``; False when the queue is full (item dropped)."""
        if len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        return True

    def pop(self) -> T:
        """Dequeue the oldest item (raises IndexError when empty)."""
        return self._items.popleft()

    def drain(self, limit: int = -1) -> Iterator[T]:
        """Yield up to ``limit`` items (all when negative), FIFO order."""
        count = 0
        while self._items and (limit < 0 or count < limit):
            count += 1
            yield self._items.popleft()


class Stage:
    """Base class for pipeline stages: one named step's counters, kept
    in :attr:`stats` and the metrics registry together."""

    name: str = "stage"

    def __init__(self) -> None:
        self.stats = StageStats()
        metrics = current_registry()
        self._m_received = metrics.counter("stage_received_total",
                                           stage=self.name)
        self._m_processed = metrics.counter("stage_processed_total",
                                            stage=self.name)
        self._m_dropped = metrics.counter("stage_dropped_total",
                                          stage=self.name)
        self._m_depth = metrics.gauge("stage_queue_depth_high_water",
                                      stage=self.name)

    # -- accounting (updates stats and the metrics registry together) -----

    def mark_received(self, count: int = 1) -> None:
        self.stats.received += count
        self._m_received.inc(count)

    def mark_processed(self, count: int = 1) -> None:
        self.stats.processed += count
        self._m_processed.inc(count)

    def mark_dropped(self, count: int = 1) -> None:
        self.stats.dropped += count
        self._m_dropped.inc(count)

    def note_queue_depth(self, depth: int) -> None:
        """Record the stage's intake depth (keeps the high-water mark)."""
        self._m_depth.set_max(depth)
