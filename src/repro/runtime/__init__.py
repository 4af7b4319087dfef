"""The staged runtime: event bus, stages and the probe registry.

``repro.runtime`` is the layer the sourcing→scan data path runs on:
:mod:`~repro.runtime.bus` carries typed events between pipeline stages,
:mod:`~repro.runtime.stage` gives stages bounded queues with drop
accounting, and :mod:`~repro.runtime.registry` makes the probe set a
campaign parameter.  See DESIGN.md §3 for the module map.
"""

from repro.runtime.bus import (
    AddressSighted,
    BusStats,
    Event,
    EventBus,
    TargetScanned,
)
from repro.runtime.registry import (
    DEFAULT_PACKET_COST,
    ProbeRegistry,
    ProbeSpec,
    default_registry,
)
from repro.runtime.stage import BoundedQueue, Stage, StageStats

__all__ = [
    "AddressSighted",
    "BoundedQueue",
    "BusStats",
    "DEFAULT_PACKET_COST",
    "Event",
    "EventBus",
    "ProbeRegistry",
    "ProbeSpec",
    "Stage",
    "StageStats",
    "TargetScanned",
    "default_registry",
]
