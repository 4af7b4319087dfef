"""Configuration of the always-on measurement service.

:class:`ServiceConfig` holds the campaign daemon's settings: how many
simulated days to run, how often to checkpoint and re-sweep the
hitlist, and the seeds and WAL segment size of the run.  The whole
document persists in the run store's ``meta.json``, exactly like
:class:`~repro.core.pipeline.ExperimentConfig` for batch studies, so a
crashed daemon resumes from nothing but its run directory.

How the world evolves per tick (:data:`DRIFT_SPAWN_RATE`,
:data:`DRIFT_RETIRE_RATE`, :data:`POOL_JOIN_RATE`,
:data:`POOL_LEAVE_RATE`) and the query front end's defaults
(:data:`WINDOW_DAYS`, :data:`STEP_DAYS`, :data:`SERVE_CACHE_FRAMES`)
are module constants: no run sets them.  Stores written when they were
config fields recorded them at these same values; loading such a
store ignores the recorded keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.campaign import CampaignConfig
from repro.world.hitlist import HitlistConfig
from repro.world.population import WorldConfig

#: Per-premises per-day probability that a new client device joins.
DRIFT_SPAWN_RATE = 0.02
#: Per-premises per-day probability that one client retires.
DRIFT_RETIRE_RATE = 0.01
#: Per-day probability that a background server joins the pool.
POOL_JOIN_RATE = 0.25
#: Per-day probability that a background server leaves the pool.
POOL_LEAVE_RATE = 0.15

#: Default query-window span and stride, in days (``repro serve``,
#: ``analyze --window``, ``api.query_window``).
WINDOW_DAYS = 7
STEP_DAYS = 7
#: LRU capacity of the serve front end's materialized-frame cache.
SERVE_CACHE_FRAMES = 32


@dataclass
class ServiceConfig:
    """Everything needed to run (and resume) a longitudinal campaign."""

    world: WorldConfig = field(default_factory=WorldConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    hitlist: HitlistConfig = field(default_factory=HitlistConfig)
    #: The run-store directory the daemon appends to.  Required: a
    #: service run *is* its store (there is no in-memory-only mode).
    store_dir: Optional[str] = None
    #: Total simulated collection days of the campaign.
    campaign_days: int = 21
    #: Days between durable checkpoints (the windowed query engine's
    #: replay anchors — smaller means cheaper queries, more files).
    checkpoint_days: int = 7
    #: Days between hitlist rebuild + batch sweep (0 disables the
    #: hitlist side entirely).  Sweeps run at the *start* of the due
    #: day, so their grabs land inside that day's window.
    hitlist_days: int = 7
    #: Changes nothing: the scan engine draws no random numbers.  Kept
    #: so stored configs and callers that set it still load.
    scan_seed: int = 0x51AB
    #: Seed of the dedicated world-evolution RNG stream (device drift +
    #: pool churn).  Separate from every other stream so drift never
    #: perturbs the campaign/world sequences.
    drift_seed: int = 0xD21F7
    #: WAL segment size, passed through to :meth:`RunStore.create`.
    segment_max_records: int = 4096

    def __post_init__(self) -> None:
        # House style: validation on the config, errors lead with
        # field=value so CLI exit-2 output names the offending value.
        if self.store_dir is None:
            raise ValueError(
                "store_dir=None: the service daemon is store-backed; "
                "name a run directory")
        if self.campaign_days < 1:
            raise ValueError(
                f"campaign_days={self.campaign_days}: must be >= 1")
        if self.checkpoint_days < 1:
            raise ValueError(
                f"checkpoint_days={self.checkpoint_days}: must be >= 1")
        if self.hitlist_days < 0:
            raise ValueError(
                f"hitlist_days={self.hitlist_days}: must be >= 0 "
                "(0 disables hitlist sweeps)")
        if self.segment_max_records < 1:
            raise ValueError(
                f"segment_max_records={self.segment_max_records}: "
                "must be >= 1")


def is_service_document(document: dict) -> bool:
    """Whether a stored config document belongs to a service campaign
    (vs a batch :class:`ExperimentConfig` study)."""
    return "campaign_days" in document
