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

Tick order matters for window semantics: the hitlist sweep (when due)
runs at the *start* of its day, so sweep grabs — stamped with up to
``protocol_delay_max`` seconds of jitter — land inside that day's
window and are covered by the same day-end mark that carries their
cumulative target count.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Dict

from repro.core.campaign import CollectionCampaign
from repro.core.realtime import RealTimeScanQueue
from repro.obs.metrics import current_registry
from repro.runtime.registry import default_registry
from repro.scan.engine import EngineConfig, ScanEngine
from repro.scan.ethics import publish_scanner_identity
from repro.scan.result import ScanResults
from repro.service.config import (
    ServiceConfig,
    is_service_document,
    service_config_from_document,
)
from repro.store.runstore import RunStore
from repro.store.writer import StoreWriter
from repro.world.hitlist import build_hitlist
from repro.world.population import (
    build_world,
    retire_client_device,
    spawn_client_device,
)


def _open_service_writer(config: ServiceConfig, *,
                         resume: bool) -> StoreWriter:
    """The daemon's StoreWriter: fresh store, or verify-mode recovery."""
    import json

    if resume:
        store = RunStore.open(config.store_dir)
        return StoreWriter(store, recovery=store.recover(repair=True))
    store = RunStore.create(
        config.store_dir,
        # JSON round-trip normalizes tuples to lists, so the stored
        # config is exactly what service_config_from_document reads.
        config=json.loads(json.dumps(asdict(config))),
        cooldown_ttl=EngineConfig().cooldown,
        segment_max_records=config.segment_max_records,
        fsync_every=config.fsync_every,
    )
    return StoreWriter(store)


class CampaignDaemon:
    """Owns one longitudinal campaign: world, engines, store, ticks.

    Construction replays nothing by itself; :meth:`run` (or repeated
    :meth:`tick` calls) drives the simulated clock forward.  With a
    verify-mode ``writer`` (a resume), the same deterministic code path
    regenerates history record-for-record until the log runs out.
    """

    def __init__(self, config: ServiceConfig, *,
                 writer: StoreWriter) -> None:
        from repro.core.pipeline import SCANNER_PTR_NAME, _scanner_source

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

        registry = default_registry()
        if config.protocols is not None:
            registry = registry.subset(*config.protocols)
        scanner_source = _scanner_source(self.world)
        publish_scanner_identity(self.world.network, scanner_source,
                                 self.world.rdns,
                                 ptr_name=SCANNER_PTR_NAME)
        label = config.campaign.label
        self.engine = ScanEngine(
            self.world.network, scanner_source,
            EngineConfig(drive_clock=False, seed=config.scan_seed),
            registry=registry, name=label)
        self.queue = RealTimeScanQueue(
            self.engine, results=ScanResults(label=label))
        self.campaign = CollectionCampaign(self.world, config.campaign,
                                           scan_queue=self.queue)
        # Subscription order matches the batch pipeline: the queue
        # subscribed first (campaign construction), so each sighting's
        # admit/grab records land before its sighting record — in both
        # original and replayed runs.
        self.engine.attach_store(writer, label=label)
        writer.attach(self.campaign.dataset.bus)
        writer.mark("setup", 0, self.world.clock.now(), {})
        self.campaign.start()

        # One persistent hitlist engine for every sweep: its cool-down
        # map carries across sweeps, so the store-verify invariant (no
        # re-probe inside the TTL) holds by construction as long as
        # hitlist_days exceeds the cool-down (the defaults: 7 > 3).
        self.hitlist_engine = ScanEngine(
            self.world.network, scanner_source,
            EngineConfig(drive_clock=False, seed=config.scan_seed ^ 0xFF),
            registry=registry, name="hitlist")
        self.hitlist_engine.attach_store(writer, label="hitlist")
        self.hitlist_scan = ScanResults(label="hitlist")
        self.engines = [self.engine, self.hitlist_engine]
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
        return cls(config, writer=_open_service_writer(config, resume=False))

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
        config = service_config_from_document(document,
                                              store_dir=str(run_dir))
        return cls(config, writer=_open_service_writer(config, resume=True))

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
        self.campaign.advance_days(1)
        self.writer.mark("service", self.day, self.world.clock.now(),
                         self._targets())
        if self.day % self.config.checkpoint_days == 0:
            self.writer.checkpoint(self._checkpoint_state)
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
        self.writer.mark("done", self.day, self.world.clock.now(),
                         self._targets())
        self.writer.checkpoint(self._checkpoint_state)
        self._final_seq = self.writer.last_seq
        self.writer.close()

    # -- world evolution ---------------------------------------------------

    def _evolve(self) -> None:
        """One day of longitudinal world evolution (drift RNG only)."""
        config = self.config
        rng = self.drift_rng
        for site in self.world.premises:
            if (config.drift_spawn_rate > 0
                    and rng.random() < config.drift_spawn_rate):
                device = spawn_client_device(self.world, site, rng)
                if device is not None:
                    self.campaign.adopt_client(device)
                    self.drift["devices_spawned"] += 1
                    self._m_spawned.inc()
            if (config.drift_retire_rate > 0
                    and rng.random() < config.drift_retire_rate):
                candidates = [device for device in site.devices
                              if device.type_name == "client"
                              and device.is_ntp_client]
                if candidates:
                    device = rng.choice(candidates)
                    self.campaign.retire_client(device)
                    retire_client_device(self.world, site, device)
                    self.drift["devices_retired"] += 1
                    self._m_retired.inc()
        if (config.pool_join_rate > 0
                and rng.random() < config.pool_join_rate):
            country = rng.choice(self._zone_codes)
            dead = rng.random() < config.campaign.background_dead_rate
            self.campaign.add_background_server(country, dead=dead)
            self.drift["pool_joined"] += 1
            self._m_joined.inc()
        if (config.pool_leave_rate > 0
                and rng.random() < config.pool_leave_rate):
            if self.campaign.remove_random_background(rng) is not None:
                self.drift["pool_left"] += 1
                self._m_left.inc()

    def _hitlist_sweep(self) -> None:
        """Rebuild the hitlist from current world state and sweep it.

        The hitlist drifts with the world (DNS re-resolves at build
        time), so successive sweeps cover different address sets — the
        longitudinal analogue of the paper's one-shot final-week scan.
        """
        hitlist = build_hitlist(self.world, self.config.hitlist)
        sweep = self.hitlist_engine.run(sorted(hitlist.full),
                                        label="hitlist")
        self.hitlist_scan.absorb(sweep)
        self.drift["hitlist_sweeps"] += 1
        self._m_sweeps.inc()

    # -- durable state -----------------------------------------------------

    def _targets(self) -> Dict[str, int]:
        """Cumulative targets-seen denominators for mark records."""
        return {
            self.config.campaign.label: self.queue.results.targets_seen,
            "hitlist": self.hitlist_scan.targets_seen,
        }

    def _checkpoint_state(self) -> Dict:
        report = self.campaign.report()
        cooldowns: Dict = {}
        for engine in self.engines:
            cooldowns.update(engine.cooldown_snapshots())
        return {
            "phase": "service",
            "day": self.day,
            "clock": self.world.clock.now(),
            "campaign": {
                "days_run": report.days_run,
                "addresses": len(self.campaign.dataset),
                "requests": self.campaign.dataset.total_requests,
                "wire_queries": report.wire_queries,
                "fast_queries": report.fast_queries,
                "per_server_requests": report.per_server_requests,
            },
            "targets": self._targets(),
            "drift": dict(self.drift),
            "cooldowns": cooldowns,
            "metrics": current_registry().snapshot(),
        }

    # -- reporting ---------------------------------------------------------

    def tables(self) -> Dict:
        """Headline tables of the campaign so far (RunReport shape)."""
        report = self.campaign.report()
        return {
            "campaign": {
                "days_run": report.days_run,
                "addresses": len(self.campaign.dataset),
                "requests": self.campaign.dataset.total_requests,
                "targets": self._targets(),
            },
            "drift": dict(self.drift),
            "pool": {
                "background_members": self.campaign.background_pool_size(),
                "capture_servers": len(self.campaign.capture_servers),
            },
            "store": {
                "run_dir": str(self.writer.store.run_dir),
                "last_seq": (self._final_seq if self._closed
                             else self.writer.last_seq),
            },
        }


__all__ = ["CampaignDaemon"]
