"""Simulated-network helpers that only tests use.

:class:`SimpleSession` is a canned TCP session for the hosts a test
wires by hand.  The functions drive or read :mod:`repro.net` state in
ways the program itself never needs: stepping the clock by a relative
amount, scheduling relative to now, draining or counting queued
events, asking whether an address is served by an aliased /64, and
whether a PTR name marks its address as a research scanner.
They read the scheduler's or network's private state, which the
program keeps for its own use.
"""

import heapq
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class SimpleSession:
    """A canned session: fixed greeting, function-driven responses."""

    respond: Callable[[bytes], Optional[bytes]]
    banner: bytes = b""
    closed: bool = False

    def greeting(self) -> bytes:
        return self.banner

    def on_data(self, data: bytes) -> Optional[bytes]:
        return self.respond(data)


def advance(clock, seconds: float) -> float:
    """Move ``clock`` forward by ``seconds``; negative steps are
    rejected."""
    if seconds < 0:
        raise ValueError(f"cannot move time backwards by {seconds}")
    return clock.advance_to(clock.now() + seconds)


def call_later(scheduler, delay: float, action: Callable[[], None]):
    """Schedule ``action`` ``delay`` simulated seconds from now."""
    if delay < 0:
        raise ValueError(f"delay must be non-negative, got {delay}")
    return scheduler.call_at(scheduler.clock.now() + delay, action)


def run_all(scheduler, limit: int = 10_000_000) -> int:
    """Drain the scheduler's queue completely (with a runaway guard)."""
    executed = 0
    while scheduler._heap:
        event = heapq.heappop(scheduler._heap)
        if executed >= limit:
            raise RuntimeError("event limit exceeded; runaway schedule?")
        scheduler.clock.advance_to(max(event.when, scheduler.clock.now()))
        event.action()
        executed += 1
    return executed


def pending(scheduler) -> int:
    """Number of scheduled events not yet run."""
    return len(scheduler._heap)


#: Substrings that mark a PTR name as self-identifying research.
RESEARCH_MARKERS = ("research", "scan", "survey", "measurement")


def identifies_research(rdns, address: int) -> bool:
    """Whether ``address`` self-identifies as a research scanner in the
    reverse-DNS registry ``rdns``."""
    name = rdns.lookup(address)
    if name is None:
        return False
    lowered = name.lower()
    return any(marker in lowered for marker in RESEARCH_MARKERS)


def is_wildcard(network, address: int) -> bool:
    """Whether an address is served by an aliased /64."""
    return address not in network._hosts and \
        (address >> 64) in network._wildcards
