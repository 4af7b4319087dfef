"""The staged runtime: stages and the probe registry.

``repro.runtime`` is the layer the sourcing→scan data path runs on:
:mod:`~repro.runtime.stage` gives stages bounded queues with drop
accounting, and :mod:`~repro.runtime.registry` makes the probe set a
campaign parameter.  See DESIGN.md §3 for the module map.
"""

from repro.runtime.registry import (
    DEFAULT_PACKET_COST,
    ProbeRegistry,
    ProbeSpec,
    default_registry,
)
from repro.runtime.stage import BoundedQueue, Stage, StageStats

__all__ = [
    "BoundedQueue",
    "DEFAULT_PACKET_COST",
    "ProbeRegistry",
    "ProbeSpec",
    "Stage",
    "StageStats",
    "default_registry",
]
