"""The campaign daemon: collection + scanning as a long-running loop.

A batch :func:`~repro.core.pipeline.run_experiment` runs its phases and
exits; the daemon instead *ticks*, one simulated day at a time, for a
rolling multi-week window — and the world evolves underneath it the
way the real one does over a month:

* **dynamic-prefix churn** — the existing per-day
  :class:`~repro.world.churn.ChurnModel` step (inside
  ``CollectionCampaign.advance_days``);
* **device-population drift** — households gain and lose NTP clients
  (:func:`~repro.world.population.spawn_client_device` /
  ``retire_client_device``), driven by a dedicated drift RNG stream;
* **pool membership churn** — background NTP servers join and leave
  zones mid-campaign (``CollectionCampaign.add_background_server`` /
  ``remove_random_background``).

Every tick appends to the run store's WAL (sightings, admits, grabs,
one ``mark`` per day) and cuts a checkpoint every
``checkpoint_days`` — the windowed query engine's replay anchors.
Crash recovery is the store's deterministic-replay protocol: resuming
re-runs the daemon from genesis with the writer in verify mode, checks
every regenerated record against the surviving log, and switches live
at the exact record where the crash cut it off.

The scan path itself — scanner identity, engines, real-time queue,
campaign, store taps, marks and checkpoints — is the batch study's
:class:`~repro.core.pipeline.ScanRig`.

Tick order matters for window semantics: the hitlist sweep (when due)
runs at the *start* of its day, so sweep grabs — stamped with the
clock at their admission, since the engines never move the clock —
land inside that day's window and are covered by the same day-end mark
that carries their cumulative target count.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.campaign import BACKGROUND_DEAD_RATE
from repro.core.pipeline import ScanRig, config_from_document, open_store_writer
from repro.obs.metrics import current_registry
from repro.service.config import (
    DRIFT_RETIRE_RATE,
    DRIFT_SPAWN_RATE,
    POOL_JOIN_RATE,
    POOL_LEAVE_RATE,
    ServiceConfig,
    is_service_document,
)
from repro.store.runstore import RunStore
from repro.store.writer import StoreWriter
from repro.world.hitlist import build_hitlist
from repro.world.population import (
    build_world,
    retire_client_device,
    spawn_client_device,
)


class CampaignDaemon:
    """Owns one longitudinal campaign: world, engines, store, ticks.

    Construction replays nothing by itself; :meth:`run` (or repeated
    :meth:`tick` calls) drives the simulated clock forward.  With a
    verify-mode ``writer`` (a resume), the same deterministic code path
    regenerates history record-for-record until the log runs out.
    """

    def __init__(self, config: ServiceConfig, *,
                 writer: StoreWriter) -> None:
        self.config = config
        self.writer = writer
        self.world = build_world(config.world)
        self.drift_rng = random.Random(config.drift_seed)
        self.day = 0
        self.drift: Dict[str, int] = {
            "devices_spawned": 0, "devices_retired": 0,
            "pool_joined": 0, "pool_left": 0, "hitlist_sweeps": 0,
        }
        self._closed = False
        self._final_seq = 0

        self.rig = ScanRig(self.world, config.campaign,
                           label=config.campaign.label, writer=writer)
        self.rig.campaign.start()
        # One persistent hitlist engine for every sweep: its cool-down
        # map carries across sweeps, so the store-verify invariant (no
        # re-probe inside the TTL) holds by construction as long as
        # hitlist_days exceeds the cool-down (the defaults: 7 > 3).
        self.rig.add_hitlist_engine()
        #: Targets fed to every hitlist sweep so far, the denominator
        #: marks and checkpoints carry; the sweeps' grabs are in the WAL.
        self.hitlist_seen = 0
        self._zone_codes = [country.code
                            for country in self.world.geo.countries
                            if country.competing_servers > 0]

        metrics = current_registry()
        self._m_ticks = metrics.counter("service_ticks_total")
        self._m_spawned = metrics.counter("service_devices_spawned_total")
        self._m_retired = metrics.counter("service_devices_retired_total")
        self._m_joined = metrics.counter("service_pool_joined_total")
        self._m_left = metrics.counter("service_pool_left_total")
        self._m_sweeps = metrics.counter("service_hitlist_sweeps_total")

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(cls, config: ServiceConfig) -> "CampaignDaemon":
        """A fresh daemon over a newly created run store."""
        return cls(config, writer=open_store_writer(
            config, resume=False,
            segment_max_records=config.segment_max_records))

    @classmethod
    def resume(cls, run_dir: str) -> "CampaignDaemon":
        """Recover a crashed (or stopped) daemon from its run directory.

        The stored config is rebuilt from ``meta.json`` and the writer
        starts in verify mode; calling :meth:`run` then replays history
        deterministically and continues live from the crash point.
        """
        store = RunStore.open(run_dir)
        document = store.meta["config"]
        if not is_service_document(document):
            raise ValueError(
                f"run_dir={run_dir}: holds a batch study, not a service "
                "campaign; use api.resume() instead")
        config = config_from_document(ServiceConfig, document,
                                      store_dir=str(run_dir))
        return cls(config, writer=open_store_writer(config, resume=True))

    # -- the tick loop -----------------------------------------------------

    def tick(self) -> int:
        """Run one simulated collection day; returns the day number.

        Order: world evolution (drift + pool churn; day 1 runs the
        world as built), then the hitlist sweep when due (start of
        day), then the day's collection + realtime scanning, then the
        day-end mark and (periodically) a checkpoint.
        """
        if self.day >= self.config.campaign_days:
            raise RuntimeError(
                f"campaign complete: {self.day} of "
                f"{self.config.campaign_days} days already run")
        self.day += 1
        if self.day > 1:
            self._evolve()
        if (self.config.hitlist_days
                and self.day % self.config.hitlist_days == 0):
            self._hitlist_sweep()
        self.rig.campaign.advance_days(1)
        self.rig.mark("service", self.day, self._targets())
        if self.day % self.config.checkpoint_days == 0:
            self.rig.checkpoint(self._targets())
        self._m_ticks.inc()
        return self.day

    def run(self) -> None:
        """Tick to the configured horizon, then close the store."""
        while self.day < self.config.campaign_days:
            self.tick()
        self.close()

    def close(self) -> None:
        """Final mark + checkpoint + WAL release (idempotent).

        This is the graceful-shutdown path ``repro serve`` calls when a
        live daemon is attached: whatever the last tick appended is
        anchored by one final checkpoint before the process exits.
        """
        if self._closed:
            return
        self._closed = True
        self.rig.mark("done", self.day, self._targets())
        self.rig.checkpoint(self._targets())
        self._final_seq = self.writer.last_seq
        self.writer.close()

    # -- world evolution ---------------------------------------------------

    def _evolve(self) -> None:
        """One day of longitudinal world evolution (drift RNG only)."""
        rng = self.drift_rng
        campaign = self.rig.campaign
        for site in self.world.premises:
            if rng.random() < DRIFT_SPAWN_RATE:
                device = spawn_client_device(self.world, site, rng)
                if device is not None:
                    campaign.adopt_client(device)
                    self.drift["devices_spawned"] += 1
                    self._m_spawned.inc()
            if rng.random() < DRIFT_RETIRE_RATE:
                candidates = [device for device in site.devices
                              if device.type_name == "client"
                              and device.is_ntp_client]
                if candidates:
                    device = rng.choice(candidates)
                    campaign.retire_client(device)
                    retire_client_device(self.world, site, device)
                    self.drift["devices_retired"] += 1
                    self._m_retired.inc()
        if rng.random() < POOL_JOIN_RATE:
            country = rng.choice(self._zone_codes)
            dead = rng.random() < BACKGROUND_DEAD_RATE
            campaign.add_background_server(country, dead=dead)
            self.drift["pool_joined"] += 1
            self._m_joined.inc()
        if rng.random() < POOL_LEAVE_RATE:
            if campaign.remove_random_background(rng) is not None:
                self.drift["pool_left"] += 1
                self._m_left.inc()

    def _hitlist_sweep(self) -> None:
        """Rebuild the hitlist from current world state and sweep it.

        The hitlist drifts with the world (DNS re-resolves at build
        time), so successive sweeps cover different address sets — the
        longitudinal analogue of the paper's one-shot final-week scan.
        """
        hitlist = build_hitlist(self.world, self.config.hitlist)
        self.hitlist_seen += self.rig.scan_hitlist(hitlist).targets_seen
        self.drift["hitlist_sweeps"] += 1
        self._m_sweeps.inc()

    # -- durable state -----------------------------------------------------

    def _targets(self) -> Dict[str, int]:
        """Cumulative targets-seen denominators for marks and checkpoints."""
        return self.rig.targets(self.hitlist_seen)

    # -- reporting ---------------------------------------------------------

    def tables(self) -> Dict:
        """Headline tables of the campaign so far (RunReport shape)."""
        campaign = self.rig.campaign
        report = campaign.report()
        return {
            "campaign": {
                "days_run": report.days_run,
                "addresses": len(campaign.dataset),
                "requests": campaign.dataset.total_requests,
                "targets": self._targets(),
            },
            "drift": dict(self.drift),
            "pool": {
                "background_members": campaign.background_pool_size(),
                "capture_servers": len(campaign.capture_servers),
            },
            "store": {
                "run_dir": str(self.writer.store.run_dir),
                "last_seq": (self._final_seq if self._closed
                             else self.writer.last_seq),
            },
        }


__all__ = ["CampaignDaemon"]
