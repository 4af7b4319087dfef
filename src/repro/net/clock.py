"""A virtual clock driving every time-dependent component.

Nothing in the reproduction reads wall-clock time: the collection
window, scan cool-downs, protocol inter-scan delays, and the telescope's
actor-timing analysis all consume this clock, which makes every
experiment deterministic and instantaneous to run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List


class VirtualClock:
    """Monotonic simulated time, in seconds since the experiment epoch."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump to an absolute time at or after the current time."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move time backwards to {timestamp} (now {self._now})"
            )
        self._now = timestamp
        return self._now


@dataclass(order=True)
class _Event:
    when: float
    sequence: int
    action: Callable[[], None] = field(compare=False)


class EventScheduler:
    """A tiny discrete-event loop on top of :class:`VirtualClock`.

    Components schedule callbacks at absolute simulated times;
    :meth:`run_until` executes them in order while advancing the clock.
    This is what lets the NTP pool emit client request streams
    and third-party actors scan "days" after sourcing an address — all
    inside one process.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._heap: List[_Event] = []
        self._counter = itertools.count()

    def call_at(self, when: float, action: Callable[[], None]) -> _Event:
        """Schedule ``action`` at absolute simulated time ``when``."""
        if when < self.clock.now():
            raise ValueError(
                f"cannot schedule at {when}, clock already at {self.clock.now()}"
            )
        event = _Event(when=when, sequence=next(self._counter), action=action)
        heapq.heappush(self._heap, event)
        return event

    def run_until(self, deadline: float) -> int:
        """Run all events scheduled up to and including ``deadline``.

        The clock ends at ``deadline`` even if the queue drains earlier.
        Returns the number of events executed.
        """
        executed = 0
        while self._heap and self._heap[0].when <= deadline:
            event = heapq.heappop(self._heap)
            self.clock.advance_to(max(event.when, self.clock.now()))
            event.action()
            executed += 1
        self.clock.advance_to(max(deadline, self.clock.now()))
        return executed


#: Convenience constants for expressing simulated durations.
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86_400.0
WEEK = 7 * DAY
