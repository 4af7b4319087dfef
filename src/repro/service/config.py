"""Configuration of the always-on measurement service.

One dataclass covers both halves of the subsystem: the campaign
daemon's longitudinal knobs (how many simulated days, how the world
evolves per tick, how often to checkpoint and re-sweep the hitlist)
and the query front end's defaults (window/step spans, frame-cache
capacity).  The whole document persists in the run store's
``meta.json`` — exactly like :class:`~repro.core.pipeline.
ExperimentConfig` for batch studies — so a crashed daemon resumes from
nothing but its run directory, and ``repro serve`` picks up the
window defaults the campaign was designed around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.campaign import CampaignConfig
from repro.core.pipeline import check_protocols
from repro.world.hitlist import HitlistConfig
from repro.world.population import WorldConfig


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
    #: Restrict the probe profile (None = the paper's full registry).
    protocols: Optional[Tuple[str, ...]] = None
    #: Seed of the dedicated world-evolution RNG stream (device drift +
    #: pool churn).  Separate from every other stream so drift never
    #: perturbs the campaign/world sequences.
    drift_seed: int = 0xD21F7
    #: Per-premises per-day probability that a new client device joins.
    drift_spawn_rate: float = 0.02
    #: Per-premises per-day probability that one client retires.
    drift_retire_rate: float = 0.01
    #: Per-day probability that a background server joins the pool.
    pool_join_rate: float = 0.25
    #: Per-day probability that a background server leaves the pool.
    pool_leave_rate: float = 0.15
    #: Default query-window span in days (``analyze --window``,
    #: ``repro serve``).
    window: int = 7
    #: Default stride between successive windows, in days.
    step: int = 7
    #: LRU capacity of the serve front end's materialized-frame cache.
    serve_cache_frames: int = 32
    #: WAL tuning, passed through to :meth:`RunStore.create`.
    segment_max_records: int = 4096
    fsync_every: int = 256

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
        for name in ("drift_spawn_rate", "drift_retire_rate",
                     "pool_join_rate", "pool_leave_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{name}={rate}: must be a probability in [0, 1]")
        if self.window < 1:
            raise ValueError(f"window={self.window}: must be >= 1 day")
        if self.step < 1:
            raise ValueError(f"step={self.step}: must be >= 1 day")
        if self.serve_cache_frames < 1:
            raise ValueError(
                f"serve_cache_frames={self.serve_cache_frames}: "
                "must be >= 1")
        if self.segment_max_records < 1:
            raise ValueError(
                f"segment_max_records={self.segment_max_records}: "
                "must be >= 1")
        if self.fsync_every < 1:
            raise ValueError(
                f"fsync_every={self.fsync_every}: must be >= 1")
        check_protocols(self.protocols)


def is_service_document(document: dict) -> bool:
    """Whether a stored config document belongs to a service campaign
    (vs a batch :class:`ExperimentConfig` study)."""
    return "campaign_days" in document
