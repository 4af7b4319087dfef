"""The probe registry the scan engines run.

:mod:`~repro.runtime.registry` makes the probe set a campaign
parameter.  See DESIGN.md §3 for the module map.
"""

from repro.runtime.registry import (
    ProbeRegistry,
    ProbeSpec,
    default_registry,
)

__all__ = [
    "ProbeRegistry",
    "ProbeSpec",
    "default_registry",
]
